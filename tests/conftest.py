"""Shared fixtures: groups and built quantum groups reused across the suite."""

import sys

import pytest

import qgcalc as q


@pytest.fixture(scope="session")
def corpus():
    return q.standard_corpus()


@pytest.fixture(scope="session")
def z2(corpus):
    return corpus["Z2"]


@pytest.fixture(scope="session")
def z3(corpus):
    return corpus["Z3"]


@pytest.fixture(scope="session")
def z4(corpus):
    return corpus["Z4"]


@pytest.fixture(scope="session")
def v4(corpus):
    # Klein four-group
    return corpus["Z2xZ2"]


@pytest.fixture(scope="session")
def s3(corpus):
    return corpus["S3"]


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(*names) counts the calls of each named qgcalc function,
    wherever a qgcalc module binds it; "Class.method" counts a method.
    Returns the dict of counts by name, which the caller may reset."""
    calls = {}
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qgcalc"]

    def defined(attr):
        # the object named attr in the module that defines it
        return next(
            getattr(m, attr)
            for m in modules
            if getattr(getattr(m, attr, None), "__module__", None) == m.__name__
        )

    def counter(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    def install(*names):
        for name in names:
            owner, _, attr = name.rpartition(".")
            holders = [defined(owner)] if owner else modules
            real = getattr(holders[0], attr) if owner else defined(attr)
            calls[name] = 0
            for holder in holders:
                if getattr(holder, attr, None) is real:
                    monkeypatch.setattr(holder, attr, counter(name, real))
        return calls

    return install
