"""Write perfbench/reference.json from the current program's outputs.

    python3 perfbench/pin.py

Run from the checkout root. Every seed-independent job is run once and its
exit code, stdout digest, written-file digests and (for exact search) node
count are pinned. Values are cross-checked against published ones (OEIS
A006855) and the planted find_blowup hosts are checked to be found at retry
0, so their answer does not depend on the workload seed. Re-pinning changes
what the benchmark calls correct: do it only in a change that says why.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import exturan  # noqa: E402
import exturan.cli  # noqa: E402
import exturan.extremal  # noqa: E402
import exturan.pipeline  # noqa: E402

import jobs as J  # noqa: E402

LBAP_DEFECT = "construct:lbap:n=5:r=4"


def main():
    os.chdir(ROOT)
    os.environ.pop("EXTURAN_CACHE", None)
    shutil.rmtree(J.WORK, ignore_errors=True)
    J.make_inputs("certify", exturan)
    all_jobs = J.workload_jobs("exact-cold", 0) + J.workload_jobs("certify", 0)
    ex = J.Executor(exturan, all_jobs)
    ref = {}
    for job in all_jobs:
        o = ex.run(job)
        if o.raised is not None:
            sys.exit(f"{job.id}: {o.raised}")
        if job.kind == "find_blowup":
            # Retry 0 uses the natural vertex order, not the seed: a host
            # found with one retry is found the same way under every seed.
            p = job.params
            at_retry_0 = exturan.pipeline.find_blowup(
                ex.hosts[job.id], ex.patterns[job.id], p["a"], seed=0, retries=1)
            planted = job.id.startswith("find_blowup:planted")
            if planted != (o.value is not None) or (
                    planted and [list(c) for c in at_retry_0.classes] != o.value):
                sys.exit(f"{job.id}: planted hosts must be found at retry 0, others never")
            ref[job.id] = {"value": o.value}
            continue
        code, out = o.code, o.stdout
        entry = {"exit": code, "stdout_sha256": J.sha(out)}
        if job.id == LBAP_DEFECT:
            # Never produced correctly yet: pin the contract, not today's exit 1.
            files = [str(f) for f in job.files]
            entry = {"exit": 0, "cert_passed": True, "stdout_sha256": J.sha(
                json.dumps({"files": files, "kind": "lbap"}, sort_keys=True) + "\n")}
        elif job.check == "heuristic":
            payload = json.loads(out)
            entry = {"exit": code, "keys": [payload["command"], payload["t_key"],
                                            payload["f_key"]]}
        elif job.check == "pinned":
            if job.files:
                entry["files"] = {f: J.sha(data) for f, data in o.files.items()}
            if o.records and job.argv[0] == "ex":
                entry["nodes"] = o.records[-1].nodes
        if job.argv[:1] == ("ex",) and job.argv[4:7:2] == ("K2_2(1,1)", "K2_2(2,2)"):
            n = int(job.argv[2])
            value = json.loads(out)["records"][0]["value"]
            if value != J.A006855[n]:
                sys.exit(f"{job.id}: value {value} differs from OEIS A006855 {J.A006855[n]}")
            entry["published"] = J.A006855[n]
        ref[job.id] = entry
    shutil.rmtree(J.WORK, ignore_errors=True)
    doc = {"about": "Pinned outputs of every seed-independent job; written by "
                    "perfbench/pin.py.", "jobs": ref}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ref)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
