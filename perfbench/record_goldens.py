"""Record the cli-docs report digests at the default seed into golden_cli.json.

    python3 perfbench/record_goldens.py

Run only when a change to the machine reports is intended.  Nothing is
written unless every command of the pass has its expected status.
"""

import json
import shutil
import sys

from run import SRC, WORKDIR, expectations, failures, run_pass

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    try:
        wl = workloads.build_cli_docs(workloads.DEFAULT_SEED, WORKDIR, goldens={})
        records = run_pass(wl).records
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    failed = failures(expectations(wl.tasks), records)
    if failed:
        print(f"error: not recording, failed ops: {failed}", file=sys.stderr)
        return 1
    digests = {task.name: task.expected[list(task.expected)[-1]]["report_sha256"]
               for task in wl.tasks}
    with open(workloads.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} report digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
