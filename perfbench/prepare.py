"""Set-up for one benchmark run: import exturan and make the workload's inputs.

Run as ``python3 perfbench/prepare.py WORKLOAD`` from the checkout root. It
prints ``ready`` once the inputs are in place; the benchmark times set-up
from spawning this process to that line, so interpreter start, the import
and input generation (for exact-warm, filling the record cache by cold
search) are all inside it.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import exturan  # noqa: E402
import exturan.cli  # noqa: E402

import jobs  # noqa: E402


def main(workload):
    shutil.rmtree(jobs.CACHE, ignore_errors=True)
    jobs.make_inputs(workload, exturan)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
