"""Time one cold set-up: `import topkset`, then load every input of a run.

Usage: python3 setup_probe.py JOB_JSON, where the job names the source
directory to import from, the dataset directories and k (loaded with
`load_problem`). Prints {"setup_s": s, "raw_s": s} as JSON:
setup_s is normalised by speed probes run in this same process, before
and after the set-up.
"""

import json
import sys
import time

from speed import Speed


def main() -> None:
    job = json.loads(sys.argv[1])
    speed = Speed()
    before = speed.scale(speed.window)
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import topkset
    for d in job["datasets"]:
        topkset.load_problem(d, job["k"], require_ground_truth=True)
    raw = time.perf_counter() - t0
    after = speed.scale(speed.window)
    print(json.dumps({"setup_s": raw * (before + after) / 2, "raw_s": raw}))


if __name__ == "__main__":
    main()
