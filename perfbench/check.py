"""Output check: compare a run's outputs with the stored reference.

Numbers are compared within a tolerance, not byte for byte, because
refactors of the spectral code may shift last digits: a number x matches its
reference r when |x - r| <= RTOL * |r| + ATOL.  Everything between the numbers
(headers, keys, flags, verdict words) must match exactly, as must the line
count.  On ``verify`` every criterion must PASS with its reference title;
the detail numbers are residuals at round-off level that the criteria
themselves gate, so they are not compared.
"""

from __future__ import annotations

import math
import re

RTOL = 1e-8
ATOL = 1e-10

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def _split(line: str) -> tuple[list[str], list[float]]:
    return _NUMBER.split(line), [float(x) for x in _NUMBER.findall(line)]


def _close(x: float, r: float) -> bool:
    if math.isnan(r) or math.isinf(r):
        return x == r or (math.isnan(x) and math.isnan(r))
    return abs(x - r) <= RTOL * abs(r) + ATOL


def compare_text(got: str, ref: str, label: str) -> list[str]:
    """Problems found comparing ``got`` with ``ref``; empty when they match."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return [f"{label}: {len(got_lines)} lines, reference has {len(ref_lines)}"]
    problems = []
    for no, (g, r) in enumerate(zip(got_lines, ref_lines), 1):
        g_text, g_nums = _split(g)
        r_text, r_nums = _split(r)
        if g_text != r_text:
            problems.append(f"{label}:{no}: text differs: {g!r} vs reference {r!r}")
            continue
        for x, y in zip(g_nums, r_nums):
            if not _close(x, y):
                problems.append(f"{label}:{no}: {x!r} differs from reference {y!r}")
                break
    return problems


def _head(line: str) -> str:
    return line.split(" -- ", 1)[0]


def check_verify(lines: list[str], ref: str) -> list[str]:
    ref_lines = ref.splitlines()
    problems = [f"verify: {line}" for line in lines if not line.startswith("[PASS]")]
    if [_head(x) for x in lines] != [_head(x) for x in ref_lines]:
        problems.append("verify: criteria or titles differ from the reference")
    return problems


def check_outputs(workload_outputs: dict[str, str], ref: dict[str, str]) -> list[str]:
    """Compare every output a workload produced with its reference."""
    if "verify" in ref:
        return check_verify(workload_outputs["verify"].splitlines(), ref["verify"])
    problems = []
    for key in ("csv", "summary"):
        problems += compare_text(workload_outputs[key], ref[key], key)
    return problems
