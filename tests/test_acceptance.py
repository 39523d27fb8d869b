"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `cohentropy verify` for the same suite through the CLI.
"""

import pytest

from cohentropy.acceptance import CRITERIA, AcceptanceContext, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(ctx, cid):
    result = run_criterion(ctx, cid)
    print(result.line())
    assert result.passed, result.details


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_perturbed_criterion_fails(ctx, cid):
    """``--perturb N`` poisons criterion N's own bounds, which must make it fail; the
    context's artifacts do not depend on ``perturb``, so one context serves all."""
    ctx.perturb = str(cid)
    try:
        assert not run_criterion(ctx, cid).passed
    finally:
        ctx.perturb = None
