"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `cohentropy verify` for the same suite through the CLI.
"""

import os

import pytest

from cohentropy import acceptance
from cohentropy.acceptance import CRITERIA, AcceptanceContext, run_all, run_criterion
from cohentropy.exceptions import InvariantViolation


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("perturb", [None, "10", "14"])
def test_run_all_matches_one_process(perturb):
    """The lines of ``run_all``, whose worker builds criteria 10's and 14's artifacts, are
    byte for byte those of every criterion run on one in-process context."""
    fresh = AcceptanceContext(perturb)
    expected = [run_criterion(fresh, cid).line() for cid in sorted(CRITERIA)]
    assert [r.line() for r in run_all(perturb)] == expected
    assert_no_child_left()


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _failing_fork(monkeypatch):
    def fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


def _worker_dies(monkeypatch):
    monkeypatch.setattr(acceptance.pickle, "dump", lambda *args: os._exit(1))


@pytest.mark.parametrize("without_worker", [_no_fork, _failing_fork, _worker_dies])
def test_run_all_without_a_worker_builds_in_process(monkeypatch, without_worker):
    """Where fork is missing or fails, or the worker ends before it sends, criterion 10's
    scan is built in this process and judged the same."""
    expected = run_criterion(AcceptanceContext(), 10).line()
    without_worker(monkeypatch)
    monkeypatch.setattr(acceptance, "CRITERIA", {10: acceptance.criterion_10})
    assert [r.line() for r in run_all()] == [expected]
    assert_no_child_left()


def test_worker_is_reaped_when_a_criterion_raises(monkeypatch):
    def broken(ctx):
        raise RuntimeError("criterion 3 broke")

    monkeypatch.setitem(CRITERIA, 3, broken)
    with pytest.raises(RuntimeError, match="criterion 3 broke"):
        run_all()
    assert_no_child_left()


def test_worker_exception_reaches_the_caller(monkeypatch):
    """An InvariantViolation raised while the worker builds the incoherent scan is raised
    where criterion 10 reads it, with its type, message and ``index``."""
    parent = os.getpid()

    def failing_scan(*args, **kwargs):
        assert os.getpid() != parent, "the scan ran in the main process"
        exc = InvariantViolation("matrix not unitary (deviation 1.000e+00)")
        exc.index = 7
        raise exc

    monkeypatch.setattr(acceptance, "conservation_scan", failing_scan)
    monkeypatch.setattr(acceptance, "CRITERIA", {10: acceptance.criterion_10})
    with pytest.raises(InvariantViolation, match=r"^matrix not unitary \(deviation 1\.000e\+00\)$") as info:
        run_all()
    assert type(info.value) is InvariantViolation and info.value.index == 7
    assert_no_child_left()
