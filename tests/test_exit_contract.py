"""The CLI's exit-code contract under generated argv.

Every argv ends with exit 0, 1 or 2 and never with a traceback; a failing
command other than ``verify`` prints exactly one line on stderr, and a
JSON report on exit 0 is strict JSON (no NaN or Infinity).  The argv
are drawn from each subcommand's flags with valid, malformed, non-finite
and out-of-range values.  Sizes stay at most 12 and the Parseval integrals
are left out, so the test stays quick.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jmatrix.cli import main  # noqa: E402


def pick(valid, invalid):
    """One of the values, a valid one three times as often as an invalid one."""
    return st.sampled_from(list(valid) * 3 + list(invalid))


def flag(name, values):
    """``[name, value]`` or, half the time, nothing."""
    return st.sampled_from([None, values]).flatmap(
        lambda v: st.just([]) if v is None else v.map(lambda x: [name, str(x)])
    )


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [tok for p in ps for tok in p])


def option(name, values):
    """``--name=value`` (the "=" keeps a value that starts with "-" a value)."""
    return values.map(lambda v: [f"--{name}={v}"])


INVALID_SCALARS = ["1/0", "nan", "inf", "-inf", "infinity", "1e400", "abc", ""]
scalar = pick(["9/4", "2.25", "19/5", "1/5", "7", "0", "-1", "3/2", "1.5", "1e200"], INVALID_SCALARS)
size = pick(range(13), [-2, -1])
family = pick(
    ["jacobi:1/2,-1/4", "jacobi:0.5,-0.25", "jacobi:0,0", "laguerre:3/4", "laguerre:0.5", "hermite",
     "chebyshev", "monomial", "bessel:2,2", "dualhahn:1/2,0,5", "cdh:11/4,1/4,7/4", "cdh:2.75,0.25,1.75"],
    ["jacobi:nan,0", "jacobi:1e400,0", "jacobi:-1,0", "jacobi:1/0,0", "laguerre:inf", "bessel:2,0",
     "dualhahn:1/2,0,0.5", "cdh:0,1,1", "hermite:1", "nosuch:1", "", "bessel:0,2", "bessel:-4,2",
     # finite parameters whose results overflow, divide by zero or are not finite
     "laguerre:171", "jacobi:1100,0", "bessel:1/2,1e-320", "jacobi:1e308,1e308", "cdh:1e200,1e200,1e200"],
)
tolerance = pick(["1e-9", "1e-6", "1e-300"], ["0", "-1", "inf", "nan", "abc"])

TRIDIAG = command(
    "tridiag",
    option("A", pick(["0,0,0,1", "1,0,0,1", "0,0,0,5/2", "0,0,0,2.5"], ["0,0,0,1e400", "nan", "1/0", ""])),
    option("B", pick(["0,0,1", "1,2,1/2", "0,0,1.5"], ["0,0,0,0,1", "abc"])),
    option("C", pick(["0,1", "1,1/3", "0,0.5"], ["0,0,1", "inf"])),
    size.map(lambda n: ["--n", str(n)]),
    flag("--q", scalar),
    switch("--relaxed"),
)
MORSE = command(
    "morse",
    option("b", scalar),
    switch("--levels"),
    flag("--tridiag", size),
    flag("--identity", size),
    flag("--residual", pick(range(7), [-2, -1])),
    flag("--grid", pick(["0,1", "-3", "2.5,-1/2"], ["1e400", "nan", "abc"])),
)
LAME = command(
    "lame",
    option("e", pick(["3,-1,-2", "5/2,-1/2,-2", "3.0,-1.0,-2.0"],
                     ["3,-1", "1,1,-2", "2,-1,-1", "nan,-1,-2", "1e400,-1,-2", "3,-1,abc"])),
    option("m", pick(["2", "4", "0", "3/2", "1.5", "7/2"], ["3", "-1", "nan", "inf", "abc", "1e200"])),
    switch("--spectrum"),
    flag("--residuals", size),
    flag("--orthonormal", size),
    flag("--diagnostic", size),
)
FAMILIES = command(
    "families",
    option("family", family),
    size.map(lambda n: ["--n", str(n)]),
    switch("--recurrence"),
    flag("--eval", scalar),
    switch("--bochner"),
    switch("--asc"),
)
QUAD = command("quad", option("family", family), size.map(lambda n: ["--n", str(n)]))
VERIFY = st.sampled_from([["verify", "--suite", "nosuch"], ["verify", "--suite", "weight-ode"]])

ARGV = st.tuples(
    pick([["--mode", "exact"], ["--mode", "float"]], [["--mode", "neither"]]),
    st.sampled_from([[], ["--out", "csv"]]),
    flag("--quad-rtol", tolerance),
    flag("--residual-tol", tolerance),
    st.one_of(TRIDIAG, MORSE, LAME, FAMILIES, QUAD, VERIFY),
).map(lambda ps: [tok for p in ps for tok in p])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ARGV)
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), argv
    if status != 0 and "verify" not in argv:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    if status == 0 and "csv" not in argv:
        json.loads(out.getvalue(), parse_constant=reject_constant)


def reject_constant(name):
    raise AssertionError(f"{name} in a JSON report")


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "float", "families", "--family", "hermite", "--n", "400", "--eval", "30"],
        ["morse", "--b", "9/4", "--residual", "-1"],
        ["--quad-rtol", "inf", "morse", "--b", "9/4", "--parseval", "2", "3"],
        ["--residual-tol", "nan", "morse", "--b", "9/4", "--residual", "1"],
        ["--mode", "float", "tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "3", "--q", "1e200"],
        # OverflowError in weight_mass; 1/u_0 = inf for a subnormal Bessel b
        ["quad", "--family", "laguerre:171", "--n", "4"],
        ["quad", "--family", "jacobi:1100,0", "--n", "4"],
        ["families", "--family", "bessel:1/2,1e-320", "--n", "3", "--bochner"],
        # reports holding NaN or Infinity, which JSON cannot carry
        ["families", "--family", "jacobi:1e308,1e308", "--n", "3", "--recurrence"],
        ["families", "--family", "cdh:1e200,1e200,1e200", "--n", "3", "--recurrence"],
        # negative counts, refused by every count flag
        ["lame", "--e", "3,-1,-2", "--m", "3/2", "--orthonormal", "-3"],
        ["lame", "--e", "3,-1,-2", "--m", "2", "--residuals", "-2"],
        ["families", "--family", "jacobi:0,0", "--n", "-3", "--recurrence"],
        ["families", "--family", "jacobi:0,0", "--n", "-1", "--eval", "1/2"],
        # --grid without the --residual it sets the samples of
        ["morse", "--b", "9/4", "--grid", "1,2"],
        # a float identity whose rounding alone exceeds --residual-tol
        ["--mode", "float", "morse", "--b", "129/4", "--identity", "3"],
        # --bochner past the float range, which once read 0.0: H_300 has
        # infinite coefficients, and the residuals are NaN from n = 261 for
        # Hermite and from n = 149 for bessel:3,2, where a coefficient of
        # A phi_n'' is infinite
        ["families", "--family", "hermite", "--n", "300", "--bochner"],
        ["families", "--family", "bessel:3,2", "--n", "150", "--bochner"],
        # an eigenvector whose first component is 0.0 cannot take P_0 = 1;
        # the monomial cross-check once left two numpy warnings on stderr here
        ["lame", "--e", "3,-1,-2", "--m", "200", "--spectrum"],
        # a residual ratio above --residual-tol, which once still exited 0
        ["--residual-tol", "1e-20", "morse", "--b", "9/4", "--residual", "3"],
        # a decimal exponent beyond +-1000 in a coefficient or family parameter
        ["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1e-100000", "--n", "3"],
        ["families", "--family", "laguerre:1e-100000", "--n", "2", "--recurrence"],
        # a float basis past the float range, which once printed "inf" and
        # "nan" as strings: L y_5 overflows at step 5
        ["--mode", "float", "tridiag", "--A=1e300,0,0,1", "--B=0,0,1", "--C=0,1", "--n", "7"],
    ],
)
def test_found_cases_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and err.count("\n") == 1 and "Traceback" not in err
