"""Record bench/golden.json: the SHA-256 of the stdout of every CLI
invocation any workload can make, at either scale, and of every cache file
the recursion workloads write.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are known to be right: every later
run of the benchmark is checked byte for byte against these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    digests: dict[str, str] = {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=ROOT / ".bench_work"))
    try:
        for scale, sizes in workloads.SIZES.items():
            for workload in workloads.WORKLOADS:
                for template in workloads.cli_pool(workload, scale):
                    cache = workdir / "cache.txt"
                    cache.unlink(missing_ok=True)
                    argv = [str(cache) if a == workloads.CACHE_TOKEN else a for a in template]
                    code, out = workloads.run_cli(argv)
                    if code != 0:
                        raise SystemExit(f"{template} exited with {code}")
                    digests[" ".join(template)] = workloads.sha256(out.encode("utf-8"))
                grid = sizes[workload].get("grid")
                if grid is not None:
                    path = workdir / "grid.txt"
                    workloads.build_cache(grid, path)
                    digests[workloads.cache_key(grid)] = workloads.sha256(path.read_bytes())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"digests": dict(sorted(digests.items()))}
    workloads.GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
