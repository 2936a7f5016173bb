import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from scatterlab.conditions import condition_to_text
from scatterlab.ordinals import Ordinal, from_int
from scatterlab.unbounded import save

from .corpus import kappa_instance, kappa_tree

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def outcome(ask, *args):
    """What `ask(*args)` returns, or the type and text of what it raises."""
    try:
        return ask(*args)
    except Exception as err:
        return type(err), str(err)


@st.composite
def flat_ordinals(draw, max_exp: int = 5, max_coeff: int = 4):
    """Ordinals below w^w: a sparse coefficient vector over natural exponents."""
    exps = draw(st.lists(st.integers(0, max_exp), max_size=4, unique=True))
    exps.sort(reverse=True)
    return Ordinal(
        (from_int(e), draw(st.integers(1, max_coeff))) for e in exps
    )


@st.composite
def deep_ordinals(draw, depth: int = 2):
    """Ordinals whose exponents may themselves be compound, up to `depth`."""
    if depth <= 0:
        return draw(flat_ordinals(max_exp=2, max_coeff=3))
    exps = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(deep_ordinals(depth=depth - 1))
        if e not in exps:
            exps.append(e)
    exps.sort(reverse=True)
    return Ordinal((e, draw(st.integers(1, 3))) for e in exps)


def limit_ordinals(depth: int = 2):
    return deep_ordinals(depth=depth).filter(lambda a: a.is_limit)


@contextmanager
def wall_clock(seconds):
    """Fail the test, not the session, when the body overruns.

    The overrun is reported through `pytest.fail`, whose exception is not
    an `Exception`, so package code that catches errors cannot swallow it
    and the interrupted frame needs no traceback.
    """

    def expire(signum, frame):
        pytest.fail(f"no answer within {seconds} s", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def kappa_doc(tmp_path_factory):
    """A seeded root-sharing kappa pair stored as two condition documents,
    their F table, and the pair's two push levels: (a, b, f, zn, zm)."""
    tree = kappa_tree()
    r_nu, r_mu, zn, zm, F = kappa_instance(tree, random.Random(7))
    base = tmp_path_factory.mktemp("docs")
    a, b, f = base / "a.txt", base / "b.txt", base / "F.txt"
    a.write_text(condition_to_text(r_nu, tree.params))
    b.write_text(condition_to_text(r_mu, tree.params))
    save(F, f)
    return a, b, f, zn, zm
