"""One sha256 per CLI call: exit code, stdout, stderr and the files it wrote.

The calls are the first 10 rounds of every benchmark workload for seeds 1-3
(from `perfbench/workloads.py`), every `torspec` example of the README, and
the routes no workload reaches: every `torspec` call of CI's smoke steps,
`spectrum` (both kinds) and `resonances --verify` at bands 6-12 on five
grid-route words, `resonances` with and without `--verify --band 10` on four
words whose sector walks meet a chart atom or square the word, and the calls
of the strict expected failures and of the `build` edge cases in the tests,
and `check` on words of the atom kinds the workloads' U chains leave out.
Each runs in-process in a fresh temporary directory; a call that raises
stops the script with its traceback.  The script imports `torspec` from
`./src` and the workloads from `./perfbench` of the working directory, so
the same file compares two checkouts:

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
import json
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
from torspec.gl2z import build_homotopic_map  # noqa: E402
from torspec.map_algebra import word_to_text  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 10
# every torspec call of CI's smoke steps but the framed build word's
# `resonances --verify`, which `argvs` adds once that word is built
SMOKE = [
    'spectrum --word "W(1,0.2) . W(2,0.3)" --band 12',
    'spectrum --word "G(0.2,0.1) . F . F . R" --band 10 --kind transfer',
    'build --matrix "[[-3,-7],[-8,-19]]" --decay stretched --eta 1.0',
    'reduce --matrix "[[44945570212853,27777890035288],[27777890035288,17167680177565]]"',
    'check --word "U(1,0.4) . U(2,-0.2i) . U(1,0.35)" --grid 512',
    'build --matrix "[[1,-1],[-1,0]]" --decay stretched --eta 1.0',
    'build --matrix "[[-3,-2],[-5,-3]]" --decay stretched --eta 1.0',
]
# words that no workload assembles; a matrix stands for build's word for it
GRID_WORDS = [
    "W(1,0.2) . W(2,0.3)",
    "G(0.2,0.1) . F . F . R",
    "U(1,0.2) . W(1,0.3)",
    "G(0,0.3) . F . R . G(-0.2,0) . U(1,0.2)",
    "[[10,7],[-17,-12]]",
]
GRID_BANDS = (6, 8, 10, 12)
# sector walks through chart atoms: words with an I01 or I10 atom (the
# README word's inverse conjugated by I01), and odd chains whose backward
# (ER) and forward (ER) directions square the word
SECTOR_WORDS = [
    "U(2,0.3i) . G(0.2i,0) . Finv . I01",
    "I01 . G(0.3,0) . R . Finv . G(0,-0.3) . G(0.5,0) . R . Finv . G(0,-0.5) . I01",
    "U(1,0.4) . U(2,0.3) . U(1,-0.2)",
    "I11 . U(1,0.4) . U(2,0.3i) . U(1,0.25)",
]
# the strict expected failures and the build edge cases of the tests
EDGES = [
    *(f'build --matrix "[[-1,-2],[-1,-1]]" --decay stretched --eta {eta}' for eta in ("0.9", "1.0", "1.408")),
    'resonances --word "U(1,0.95) . U(1,0.95)"',
    'resonances --word "U(1,0.3) . U(1,0.3)"',
    'resonances --word "U(1,0.3) . U(1,0.3)" --verify --band 12',
    'build --matrix "[[6361,120],[53,1]]" --decay exponential --eta 1.0',
    'build --matrix "[[6361,120],[53,1]]" --decay exponential --eta 1000',
    'build --matrix "[[6361,120],[53,1]]" --decay stretched --eta 360',
]
# the cone certificate on the atoms no workload's U chains bring to it: W
# blocks, a G atom with dead output angles, two-parameter G atoms, Finv,
# I01 and I10 (a broken cone), at odd and even grids
CERTIFICATES = [
    'check --word "W(1,0.2) . W(2,0.3)" --grid 33',
    'check --word "G(0.2,0.1) . F . F . R" --grid 64',
    'check --word "U(2,0.3i) . G(0.2i,0) . Finv . I01" --grid 48',
    'check --word "I10 . U(1,0.5) . U(1,0.3)" --grid 40',
    'check --word "F . R . G(0.3,-0.3) . F . R" --grid 31',
    'check --word "U(1,0.4) . U(2,0.3) . U(1,-0.2)" --grid 37',
]


def built_word(matrix: str) -> str:
    """The word that `build --matrix MATRIX --decay stretched --eta 1.0` makes, also where its report fails."""
    return word_to_text(build_homotopic_map(json.loads(matrix), "stretched", 1.0).word)


def argvs():
    """Workload argvs (seeds 1-3, 10 rounds each), the README examples, then the routes no workload reaches."""
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
    yield from map(shlex.split, SMOKE)
    yield ["resonances", "--word", built_word("[[-3,-7],[-8,-19]]"), "--verify", "--band", "10"]
    for text in GRID_WORDS:
        word = built_word(text) if text.startswith("[") else text
        for band in map(str, GRID_BANDS):
            for kind in ("composition", "transfer"):
                yield ["spectrum", "--word", word, "--band", band, "--weight", "0.1,0.1,0.1,0.1", "--kind", kind]
            yield ["resonances", "--word", word, "--verify", "--band", band]
    for word in SECTOR_WORDS:
        yield ["resonances", "--word", word]
        yield ["resonances", "--word", word, "--verify", "--band", "10"]
    yield from map(shlex.split, EDGES)
    yield from map(shlex.split, CERTIFICATES)


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
