"""The benchmark's workloads: seeded op streams over ``run_suite``.

An op is one ``run_suite(SuiteConfig(**op))`` call.  Each workload cycles
through a fixed list of op classes; a class pins the config fields that
select a branch of its suite, and its weight is the number of cases of
that branch in the acceptance criterion the workload models.  Throughput
is reported at those weights, so a run that stops part-way through a
cycle still measures the criterion's case mix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class OpClass:
    name: str
    fields: Tuple[Tuple[str, object], ...]   # SuiteConfig fields besides seed
    weight: int                              # cases of this kind in the criterion

    @property
    def cases(self) -> int:
        return dict(self.fields)["cases"]


@dataclass(frozen=True)
class Workload:
    name: str
    criterion: str
    gate_cases: int          # cases the acceptance criterion runs ...
    gate_seconds: float      # ... inside this wall-time gate
    cycle: Tuple[OpClass, ...]
    trace_cycles: int        # cycles the traced run covers (a fixed set of ops)

    @property
    def gate_cases_per_s(self) -> float:
        return self.gate_cases / self.gate_seconds


def _cls(name, weight, **fields):
    return OpClass(name, tuple(sorted(fields.items())), weight)


# criterion 1: forms-identities, n=0, 200 cases, N = (3, 4, 5, 6)[cid % 4]
FORMS = Workload(
    "forms-identities", "criterion 1", 200, 30.0,
    tuple(_cls(f"N{N}", 50, suite="forms-identities", n=N, cases=1)
          for N in (3, 4, 5, 6)),
    trace_cycles=8)

# criterion 5: gauge-lemmas, 100 cases alternating su2 / p_0(3); the
# codegree-3 row runs on cid % 5 == 0, so a 5-case op holds it exactly once
GAUGE = Workload(
    "gauge-lemmas", "criterion 5", 100, 60.0,
    (_cls("su2", 50, suite="gauge-lemmas", algebra="su2", cases=5),
     _cls("p_0(3)", 50, suite="gauge-lemmas", algebra="p_0(3)", cases=5)),
    trace_cycles=1)

# criterion 8: 25 cases each of ym-decomp, kk-decomp (n = (2, 3, 4)[cid % 3],
# fiber u1 on n = 4) and grav-decomp (p_1(4) on cid % 5 == 4).  ym-decomp
# uses a curved base on odd cases, so a 2-case ym op holds one flat and one
# curved case.  A cycle holds 6 ym, 6 kk, 4 grav p_0(3) and 1 grav p_1(4)
# cases, close to the criterion's 5:5:4:1.
_GRAV03 = _cls("grav-p_0(3)", 20, suite="grav-decomp", algebra="p_0(3)", cases=1)
DECOMP = Workload(
    "decomp-charts", "criterion 8", 75, 300.0,
    (_cls("ym-n2", 9, suite="ym-decomp", n=2, algebra="su2", cases=2),
     _cls("kk-n2", 9, suite="kk-decomp", n=2, algebra="su2", cases=2),
     _GRAV03,
     _cls("ym-n3", 8, suite="ym-decomp", n=3, algebra="su2", cases=2),
     _cls("kk-n3", 8, suite="kk-decomp", n=3, algebra="su2", cases=2),
     _GRAV03,
     _cls("ym-n4", 8, suite="ym-decomp", n=4, algebra="u1", cases=2),
     _cls("kk-n4", 8, suite="kk-decomp", n=4, algebra="u1", cases=2),
     _GRAV03, _GRAV03,
     _cls("grav-p_1(4)", 5, suite="grav-decomp", algebra="p_1(4)", cases=1)),
    trace_cycles=1)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (FORMS, GAUGE, DECOMP)}


@dataclass(frozen=True)
class Op:
    index: int
    cls: OpClass
    config: Tuple[Tuple[str, object], ...]   # SuiteConfig keyword arguments

    @property
    def kwargs(self) -> dict:
        return dict(self.config)

    def describe(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.config)
        return f"op {self.index} [{self.cls.name}] SuiteConfig({args})"


def master_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_ops(workload: Workload, seed: int, cycles: int) -> List[Op]:
    ops = []
    for c in range(cycles):
        for cls in workload.cycle:
            i = len(ops)
            config = tuple(sorted(cls.fields + (("seed", master_seed(
                workload.name, seed, i)),)))
            ops.append(Op(i, cls, config))
    return ops


def ops_hash(ops: List[Op]) -> str:
    blob = json.dumps([op.config for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
