"""Frozen designs of the suite kernels: CLIQUE groups and schedules.

For every suite kernel, compiled unfused and fused at ``-n 7`` and
``-n 11`` under ``SharingMode.CLIQUE``, the record
in ``data/suite_designs.json`` holds the PLM groups, the rescheduled
statement order and each statement's loop order.  Speed-ups of the clique
cover or of the rescheduler must leave every entry as it is: among
equal-cost covers the cover keeps its tie-break (least BRAM, then the
numerically largest group mask), and the rescheduler its choices.

Regenerate after an intended change with
``PYTHONPATH=src python tests/test_suite_designs.py``.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.apps.workloads import WORKLOAD_SUITES, make_workload
from repro.flow import FlowOptions, StageCache, compile_program
from repro.mnemosyne import SharingMode

RECORD = pathlib.Path(__file__).with_name("data") / "suite_designs.json"
DEGREES = (7, 11)


def design(result) -> dict:
    poly = result.poly
    order = poly.statements_in_schedule_order()
    return {
        "groups": [list(u.members) for u in result.memory.units],
        "order": [s.name for s in order],
        "loops": {
            s.name: [str(e) for e in poly.schedule_of(s).exprs[1:1 + len(s.loop_dims)]]
            for s in order
        },
    }


def designs() -> dict:
    cache = StageCache()
    out = {}
    for n in DEGREES:
        for suite in WORKLOAD_SUITES:
            for fusion in (None, "auto"):
                res = compile_program(
                    make_workload(suite, n=n).program,
                    FlowOptions(sharing=SharingMode.CLIQUE, fusion=fusion),
                    cache=cache,
                )
                tag = "fused" if fusion else "unfused"
                for name, result in res.results.items():
                    out[f"{suite}/{tag}/n{n}/{name}"] = design(result)
    return out


def test_suite_designs_match_the_record():
    want = json.loads(RECORD.read_text())
    got = designs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(designs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
