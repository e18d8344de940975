"""Hand-written mutants of the package, and whether tier-1 kills each one.

Run from the repository root:

    python tests/mutants.py

It copies the repository into a temporary directory, checks that tier-1
passes there unmutated, then applies each mutant in MUTANTS in turn, by
exact text replacement of its old text (which must occur exactly once in
its file), runs tier-1 with `-x` on the copy and restores the file. Each
mutant prints as `killed` (tier-1 failed), `survived` (tier-1 passed), or
`known-equivalent` (tier-1 passed a mutant that computes the same results:
a test cannot kill it). A mutant whose old text is not found exactly once
prints `stale`. The exit status is 1 when a mutant went stale or one not
marked equivalent survived, else 0. It needs no mutation-testing package
(DeMillo, Lipton & Sayward, "Hints on Test Data Selection", 1978). Each
mutant takes 3-35 s on two cores, the survivors and equivalents longest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "stepbench", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    why: str
    equivalent: bool = False


K, S = "src/parconv/kernels.py", "src/parconv/schemes.py"
C, N = "src/parconv/costmodel.py", "src/parconv/netdef.py"
F, T = "src/parconv/fabric.py", "src/parconv/trainer.py"

MUTANTS = [
    # tier-1's first four real survivors, each killed by a test added for it
    Mutant(S, "    if fabric.n != plan.workers:", "    if fabric.n < plan.workers:",
           "setup_workers accepts a fabric with more workers than the plan"),
    Mutant(S, "            max_node_messages=m - 1,", "            max_node_messages=m,",
           "a cross phase counts m messages for the busiest worker, not m - 1"),
    Mutant(C, "node_messages=sum(p.max_node_messages for p in phases)",
           "node_messages=sum(p.total_messages for p in phases)",
           "latency counts every message of a phase, not the busiest worker's"),
    Mutant(S, "np.count_nonzero(np.argmax(logits, axis=1) != labels)",
           "np.count_nonzero(logits.shape[1] - 1 - np.argmax(logits[:, ::-1], axis=1)"
           " != labels)",
           "evaluation_errors breaks logit ties toward the highest class"),
    # equivalent: the same results whatever the inputs
    Mutant(S, "acc = np.array(piece, copy=True) if acc is None else acc + piece",
           "acc = np.array(piece, copy=True) if acc is None else piece + acc",
           "a + b as b + a: IEEE addition is commutative", equivalent=True),
    Mutant(F, "cand = (wid + k) % self.n", "cand = (wid - k) % self.n",
           "the lockstep turn passes to the previous runnable worker: results do not "
           "depend on the schedule", equivalent=True),
    Mutant(K, "return grad_x.reshape(batch, c, h, wd), np.ascontiguousarray(grad_w), grad_bias",
           "return grad_x.reshape(batch, c, h, wd), grad_w.copy(), grad_bias",
           "a no-op: copy() also gives a C-contiguous array", equivalent=True),
    # the max-pool without a stored argmax, and the ReLU after the pool
    Mutant(K, "            hit &= free\n", "",
           "a tap takes windows an earlier tap took"),
    Mutant(K, "            if nan is not None:  # NaN != NaN: a NaN entry hits a NaN max\n"
              "                hit |= nan & np.isnan(entry)\n", "",
           "no NaN branch: a window that pooled to NaN routes to its last tap"),
    Mutant(K, "        if k > stride:\n            target +=",
           "        if k > stride + 1:\n            target +=",
           "windows overlapping by one entry overwrite each other's gradients"),
    Mutant(K, "    for flat in range(k * k):\n        entry, target",
           "    for flat in reversed(range(k * k)):\n        entry, target",
           "taps visited last to first: ties route to the last entry"),
    Mutant(K, "(np.empty if k == stride else np.zeros)", "(np.empty if k >= stride else np.zeros)",
           "overlapping windows accumulate onto an uninitialised gradient"),
    Mutant(N, "relu_pool = (isinstance(layer, MaxPool) and not cross",
           "relu_pool = False and (isinstance(layer, MaxPool) and not cross",
           "columnize never marks a ReLU before a pool"),
    Mutant(S, "        if cl.relu_pool:\n            g = relu_backward",
           "        if False:\n            g = relu_backward",
           "_layer's pool ignores relu_pool: the passed-through ReLU never rectifies"),
    Mutant(S, "    _check_dense(cs, params)\n    x, labels = batch", "    x, labels = batch",
           "reference_step does not check its parameters against the network"),
    # checks added while mending FOUND lines
    Mutant(S, "if column and cl.shared and not np.array_equal(view, got[k]):",
           "if column and cl.shared and not (k == 'b' or np.array_equal(view, got[k])):",
           "merge_params compares a replicated head's weights but not its bias"),
    Mutant(S, "want = {k: view.shape for k, view in views[cl.index].items()}",
           "want = {k: np.shape(got.get(k)) for k in views[cl.index]}",
           "merge_params checks a column's tensor names but not their shapes"),
    Mutant(S, "            got = params.get(cl.index, {})\n", "            got = params[cl.index]\n",
           "merge_params raises a bare KeyError for a column without a layer"),
    Mutant(S, "    _check_dense(columnize(cs.base, 1), dense_params)\n", "",
           "setup_workers does not check the dense parameters against the network"),
    Mutant(S, "        if key in given:\n", "        if False:\n",
           "a repeated plan key silently takes the last value"),
    Mutant(C, "        if key in values:\n", "        if False:\n",
           "a repeated cost-params key silently takes the last value"),
    Mutant(S, "    if x.shape[0] < 1:\n", "    if x.shape[0] < 0:\n",
           "an empty batch reaches the kernels"),
    Mutant(S, "    labels = _check_batch(cs, x, labels)\n    loss, grads",
           "    labels = np.asarray(labels)\n    loss, grads",
           "reference_step does not check its batch"),
    Mutant(S, "    if not 0 <= column < cs.columns:", "    if not 0 <= column <= cs.columns:",
           "split_params accepts the column one past the last"),
    # checks added with the one-home rules for windows and sample shapes
    Mutant(K, "_require(x.ndim == 4, f\"window input", "_require(True, f\"window input",
           "_windows takes a 3-d array: numpy's unpack error, not a ShapeError"),
    Mutant(K, "            hit = free\n", "            hit = np.ones_like(free)\n",
           "the last tap takes every window, also those an earlier tap took"),
    Mutant(K, "for extent in x.shape[2:])", "for extent in x.shape[:1:-1])",
           "_conv_shapes swaps H' and W'"),
    Mutant("src/parconv/data.py", "if len(shape) != 3 or min(shape) < 1:", "if min(shape) < 1:",
           "gen_synthetic takes a 2-d sample shape"),
    Mutant("src/parconv/data.py", "if len(shape) != 3 or min(shape) < 1:",
           "if len(shape) != 3 or min(shape) < 0:",
           "gen_synthetic takes an empty sample extent"),
    Mutant("configs/fcmid.net", "fc 1024           # 6", "fc 64             # 6",
           "fcmid is midnet again"),
    Mutant("configs/minialex.net", "conv 96 3 1 1     # 8", "conv 64 3 1 1     # 8",
           "minialex's layer 8 loses a third of its filters"),
    # device memory: one capacity check, one fit rule, one capacity per config
    Mutant(N, "    if need > capacity:\n", "    if need >= capacity:\n",
           "require_fit refuses a plan that exactly fills the device"),
    Mutant(T, "            self.memory_capacity if self.memory_capacity is not None\n"
              "            else self.cost.memory if self.cost is not None\n",
           "            self.cost.memory if self.cost is not None\n"
           "            else self.memory_capacity if self.memory_capacity is not None\n",
           "TrainConfig takes the cost's memory ahead of memory_capacity"),
    Mutant(T, "            else self.cost.memory if self.cost is not None\n", "",
           "TrainConfig ignores the cost's memory"),
    Mutant(C, "_plan_cost(plan, net, batch, DEFAULT_MEMORY)",
           "_plan_cost(plan, net, batch, DEFAULT_MEMORY - 1)",
           "calibrate refuses an observation that exactly fills the default memory"),
    Mutant(F, "if self.memory_capacity < 1:", "if self.memory_capacity < 0:",
           "a device of zero bytes is accepted"),
    Mutant(C, "        DeviceSpec(self.memory)  # the device's capacity check\n", "",
           "cost parameters take a memory of zero bytes"),
    Mutant(F, "        if nbytes > meter.current[wid]:\n", "        if nbytes > meter.peak[wid]:\n",
           "free_bytes checks the peak, not the resident bytes"),
    Mutant("src/parconv/metrics.py", "if y is None or not math.isfinite(y):", "if y is None:",
           "emit_svg draws a diverged run's non-finite loss"),
]


def tier1(repo: Path) -> tuple[int, float]:
    """(pytest's exit status, seconds) of tier-1 with -x in `repo`."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(repo / ".hypothesis", ignore_errors=True)  # no example carries over
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "results")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, repo / name, ignore=ignore)
            else:
                shutil.copy(ROOT / name, repo / name)
        status, seconds = tier1(repo)
        if status != 0:
            print(f"tier-1 fails unmutated (exit {status}); no mutant run")
            return 1
        print(f"unmutated: passed ({seconds:.1f} s)", flush=True)
        for mutant in MUTANTS:
            path = repo / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                verdict = "stale"
            else:
                path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    status, seconds = tier1(repo)
                finally:
                    path.write_text(text, encoding="utf-8")
                verdict = "killed" if status else (
                    "known-equivalent" if mutant.equivalent else "survived")
            failed += verdict in ("stale", "survived")
            took = "" if verdict == "stale" else f" ({seconds:.1f} s)"
            print(f"{verdict:16} {mutant.file}: {mutant.why}{took}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failed} survived or stale")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
