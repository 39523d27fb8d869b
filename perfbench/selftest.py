"""Self-test of the output check: a poisoned reference must fail it.

    python3 perfbench/selftest.py

Like ``cohentropy verify --perturb``, this proves the check can fail at all.
Each stored reference must pass against itself and against a copy moved
well inside the tolerance, and must fail against copies poisoned beyond it:
a number moved by 1e-6 relative, a verdict flipped, a row dropped, a
criterion marked FAIL.  Needs no program run.  Exits 0 when every case
behaves, 2 otherwise.
"""

from __future__ import annotations

import re
import sys

from check import RTOL, check_outputs
from workloads import WORKLOADS, read_reference

_FLOAT = re.compile(r"(?<=,)(-?\d\.\d+e-0[1-3]|-?0\.\d{5,})(?=,)")


def _scale_first_number(text: str, factor: float) -> str:
    """Multiply the first mid-sized CSV value by ``factor``."""
    m = _FLOAT.search(text)
    return text[:m.start()] + repr(float(m.group()) * factor) + text[m.end():]


def cases(workload: str, ref: dict[str, str]):
    """(description, poisoned outputs, must pass) for one workload."""
    yield "unchanged", dict(ref), True
    if "verify" in ref:
        lines = ref["verify"].splitlines()
        bad = [lines[0].replace("[PASS]", "[FAIL]", 1)] + lines[1:]
        yield "criterion 1 marked FAIL", {"verify": "\n".join(bad) + "\n"}, False
        yield "criterion 14 missing", {"verify": "\n".join(lines[:-1]) + "\n"}, False
        return
    near = _scale_first_number(ref["csv"], 1 + RTOL / 100)
    yield "a CSV value moved by 1e-10 relative", dict(ref, csv=near), True
    far = _scale_first_number(ref["csv"], 1 + 1e-6)
    yield "a CSV value moved by 1e-6 relative", dict(ref, csv=far), False
    dropped = "".join(ref["csv"].splitlines(keepends=True)[:-1])
    yield "last CSV row dropped", dict(ref, csv=dropped), False
    flipped = re.sub(r": pass$", ": FAIL", ref["summary"], count=1, flags=re.M)
    yield "a summary verdict flipped", dict(ref, summary=flipped), False


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        ref = read_reference(workload)
        for what, outputs, must_pass in cases(workload, ref):
            passed = not check_outputs(outputs, ref)
            ok = passed == must_pass
            failures += not ok
            verdict = "passes" if passed else "fails"
            print(f"[{'PASS' if ok else 'FAIL'}] {workload}: {what} -> check {verdict}")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
