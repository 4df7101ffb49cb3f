"""Record the reference values that the workload checks compare against.

Usage: python3 perfbench/record_reference.py [mle_consistency] [cli_outputs]

Runs the ML experiment of ``mle_consistency`` and the ``sphere`` / ``chow``
subcommands of ``cli_outputs`` for every input variant and writes
``perfbench/reference.json``.  Naming workloads re-records only theirs and
keeps the other entries.  Run it only when a workload's inputs change; the
values describe the library's outputs, so a change to the library must
match them, not re-record them.
"""

import json
import shutil
import sys

from run import WORK, import_library

if __name__ == "__main__":
    import_library()
    from workloads import REFERENCE_PATH, VARIANTS, CliOutputs, MleConsistency, sha256_file
    from gaussequiv import cli

    wanted = set(sys.argv[1:]) or {"mle_consistency", "cli_outputs"}
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    ref["variants"] = VARIANTS
    if "mle_consistency" in wanted:
        ref["mle_consistency"] = {}
    if "cli_outputs" in wanted:
        ref["cli_outputs"] = {"chow_sha256": {}}
    for v in range(VARIANTS if "mle_consistency" in wanted else 0):
        report = MleConsistency(v, WORK, None).run_pass()[2]
        ref["mle_consistency"][str(v)] = {
            key: [float(x) for x in getattr(report, key)]
            for key in ("rmse_sigma2", "rmse_beta", "rmse_microergodic")
        }
        print(v, ref["mle_consistency"][str(v)]["rmse_microergodic"], flush=True)
    for v in range(VARIANTS if "cli_outputs" in wanted else 0):
        workdir = WORK / f"reference-{v}"
        wl = CliOutputs(v, workdir, None)
        for sub in ("sphere", "chow") if v == 0 else ("chow",):
            code = cli.main([sub, "--config", str(wl.configs[sub]), "--out", str(workdir / sub)])
            if code != 0:
                sys.exit(f"{sub} exited with {code}")
        if v == 0:
            ref["cli_outputs"]["sphere_sha256"] = sha256_file(workdir / "sphere" / "criterion.csv")
        ref["cli_outputs"]["chow_sha256"][str(v)] = sha256_file(workdir / "chow" / "criterion.csv")
        shutil.rmtree(workdir)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
