"""The two workloads.  Each is a closed loop with one client and no threads.

An op is one unit the loop times.  ``round(rng)`` draws the next batch of ops
from the seeded generator; ``run`` executes one op against the program;
``check`` is the benchmark's own oracle and returns ``None`` when the output is
right, else a description of what is wrong.  ``setup_code`` is the program a
fresh interpreter runs to measure ``setup_s``; for ``layer_kernels`` it is the
import plus the warm-up, which this process also runs, untimed, before its
loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from kernels import Kernels
from traced_verify import TRACE_MARK

CHILD_TIMEOUT_S = 60

# the console-script entry of `verify`, run from the checkout's sources
VERIFY_CODE = "import sys; from godeaux3.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's sources first, no bytecode cache."""
    path = str(root / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


class LayerKernels:
    """op = one seeded call to a layer's public function (see ``kernels``)."""

    name = "layer_kernels"
    in_process = True
    # one call of each kernel, on the proof's own arguments
    warm_up_code = (
        "from godeaux3 import adjoint, cover, delpezzo, fibration, lattice, pencil, plane\n"
        "L = lattice.IntersectionLattice.plane_blow_up(8)\n"
        "ok = lattice.arithmetic_genus(L.divisor([3] + [-1] * 8)) == 1\n"
        "ok &= len(cover.enumerate_main_cases()) == 3\n"
        "ok &= len(pencil.enumerate_pencil_cases(0)) == 8\n"
        "ok &= adjoint.verify_ladder_identity('s.3l', 1).ok\n"
        "ok &= fibration.eliminate_by_delta('0a').survivors == (0,)\n"
        "ok &= len(plane.cremona_orbit_connect(plane.solve_multiplicity_system(2, 2, 8))) == 7\n"
        "ok &= delpezzo.perturbation_sweep(delpezzo.table_14pt('lines-lines')) == []\n")
    setup_code = warm_up_code + "raise SystemExit(not ok)\n"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.kernels = None

    def prepare(self) -> None:
        scope: dict = {}
        exec(compile(self.warm_up_code, "<warm-up>", "exec"), scope)
        if not scope["ok"]:
            raise RuntimeError(f"{self.name}: warm-up did not verify")
        self.kernels = Kernels(self.root)

    def round(self, rng):
        return self.kernels.round(rng)

    def key(self, op):
        return op.key

    def layer(self, op):
        return op.layer

    def run(self, op):
        return self.kernels.run(op)

    def check(self, op, result):
        return self.kernels.check(op, result)


class ColdCli:
    """op = spawn ``verify run`` with default flags, read stdout to EOF, wait.

    Children run with ``PYTHONDONTWRITEBYTECODE=1``, which roughly doubles
    import time, so every run pays the same cold import.  In a traced run the
    child is ``traced_verify.py``, which wraps the same layers from outside
    and sends its counters back on stderr.
    """

    name = "cold_cli"
    in_process = False
    setup_code = "import godeaux3.cli"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = child_env(root)
        self.reference: bytes | None = None
        self.traced = False
        self.snapshots: list[dict] = []

    def prepare(self) -> None:
        pass

    def round(self, rng):
        return ["run"]

    def key(self, op):
        return op

    def layer(self, op):
        return None

    def run(self, op):
        if self.traced:
            argv = [sys.executable, str(self.root / "perfbench" / "traced_verify.py"), op]
        else:
            argv = [sys.executable, "-c", VERIFY_CODE, op]
        with subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if self.traced:
            for line in err.decode(errors="replace").splitlines():
                if line.startswith(TRACE_MARK):
                    self.snapshots.append(json.loads(line[len(TRACE_MARK):]))
        return proc.returncode, out

    def check(self, op, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        lines = out.decode(errors="replace").rstrip("\n").split("\n")
        if lines[-1] != "verdict: verified":
            return f"last line {lines[-1]!r}"
        # node rows read "<id>  [<kind>]  <status>"; the summary counts statuses
        if any(line.split()[-1] == "failed" for line in lines if "]  " in line):
            return "a node failed"
        if any("failed=" in line for line in lines if line.startswith("summary:")):
            return "summary counts failed nodes"
        if self.reference is None:
            self.reference = out
        elif out != self.reference:
            return "stdout differs from the first op of this run"
        return None


WORKLOADS = {w.name: w for w in (ColdCli, LayerKernels)}
