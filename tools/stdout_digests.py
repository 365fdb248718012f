"""One sha256 per CLI call: exit code, stdout, stderr and the files it wrote.

The calls are the first 10 rounds of every benchmark workload for seeds 1-3
(from `perfbench/workloads.py`) and every `torspec` example of the README.
Each runs in-process in a fresh temporary directory.  The script imports
`torspec` from `./src` and the workloads from `./perfbench` of the working
directory, so the same file compares two checkouts:

    git worktree add ../parent HEAD~1
    python3 tools/stdout_digests.py > /tmp/change.txt
    (cd ../parent && python3 "$OLDPWD/tools/stdout_digests.py") > /tmp/parent.txt
    diff /tmp/parent.txt /tmp/change.txt

Each output line is the digest followed by the argv; an empty diff means
every call behaves byte for byte the same.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import re
import shlex
import sys
import tempfile
import warnings

# one BLAS thread before numpy loads, as in the benchmark runner
os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
ROOT = pathlib.Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, rounds  # noqa: E402
from torspec import cli  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 10


def argvs():
    """Workload argvs (seeds 1-3, 10 rounds each), then the README examples."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            stream = rounds(workload, seed)
            for _ in range(ROUNDS):
                for item in next(stream):
                    yield list(item.argv)
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("torspec "):
                yield shlex.split(line)[1:]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # a fresh filter forgets the warnings an earlier call already showed
        warnings.simplefilter("default")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(ROOT)
        h = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
        for path in sorted(pathlib.Path(tmp).rglob("*")):
            if path.is_file():
                h.update(b"\0" + str(path.relative_to(tmp)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    for argv in argvs():
        print(digest(argv), shlex.join(argv), flush=True)
