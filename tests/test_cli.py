"""The command-line front end: verbs, reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import jvu
from jvu import albert
from jvu.cli import EXIT_CONFIRMED, EXIT_ERROR, EXIT_REFUTED, coefficient_targets, main, run_command
from jvu.fields import field_from_name
from jvu.freealg import FreePoly
from jvu.jordan import COMMUTATOR_WITNESS, circ, u_apply

#: environment in which a `python -m jvu.cli` subprocess imports this same jvu
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(jvu.__file__)), os.environ.get("PYTHONPATH")])
    ),
}

#: x nested in 1200 parentheses, deeper than the parser's recursion allows
DEEP_EXPR = "(" * 1200 + "x" + ")" * 1200

#: a 5000-digit integer, past the 4300 digits that int <-> str converts by default
BIG = "1" + "0" * 5000

REPORT_KEYS = {
    "schema_version",
    "task",
    "tool_version",
    "field",
    "mode",
    "seed",
    "inputs",
    "verdict",
    "data",
    "certificates",
    "elapsed_ms",
}


def test_identity_verb_confirmed_all_fields():
    for field in ("q", "gf2", "gf5"):
        code, report = run_command(["lemma1", "--field", field])
        assert code == EXIT_CONFIRMED
        assert report["verdict"] == "confirmed"
        assert report["data"]["residual"] == "0"


def test_report_schema():
    code, report = run_command(["lemma1"])
    assert set(report) == REPORT_KEYS
    assert report["schema_version"] == 1
    assert report["task"] == "lemma1"


def test_dims_canonical_gf2():
    code, report = run_command(["dims", "--field", "gf2"])
    assert code == EXIT_CONFIRMED
    assert report["data"]["symmetric_dim"] == 12
    assert report["data"]["jordan_dim"] == 11
    assert report["data"]["tetrad"]["in_jordan_span"] is False


def test_dims_rationals_computed():
    code, report = run_command(["dims", "--field", "q"])
    assert code == EXIT_CONFIRMED
    assert report["verdict"] == "computed"
    assert report["data"]["symmetric_dim"] == 12
    assert report["data"]["jordan_dim"] == 11


def test_dims_noncanonical_inputs():
    code, report = run_command(["dims", "--vars", "x,y", "--multidegree", "2,1", "--field", "q"])
    assert code == EXIT_CONFIRMED
    assert report["verdict"] == "computed"
    assert "tetrad" not in report["data"]


def test_dims_multidegree_mismatch_is_usage_error():
    code, report = run_command(["dims", "--vars", "x,y", "--multidegree", "1,1,1"])
    assert code == EXIT_ERROR
    assert report["verdict"] == "error"


def test_counterexample_confirmed_gf2_and_q():
    for field in ("gf2", "q"):
        code, report = run_command(["counterexample", "--field", field])
        assert code == EXIT_CONFIRMED
        data = report["data"]
        assert data["witness_in_assoc"] is True
        assert data["witness_in_outer"] is False
        assert data["symmetrized_product_in_outer"] is False
        assert data["u_image_in_outer"] is True
        assert data["gap"] is True
    assert report["mode"] == "linear"  # q defaults to the linear alphabet


def test_counterexample_certificates_present():
    code, report = run_command(["counterexample", "--field", "gf2"])
    certs = report["certificates"]
    assert "witness_in_assoc" in certs
    assert "witness_outer_residual" in certs
    assert "u_image_in_outer" in certs
    assert certs["witness_outer_residual"] != "0"


def test_counterexample_seed_witness_refuted():
    """A seed element of the outer ideal is not a gap witness: exit code 2."""
    code, report = run_command(["counterexample", "--witness", "U(circ(x, y); z)"])
    assert code == EXIT_REFUTED
    assert report["verdict"] == "refuted"
    assert report["data"]["gap"] is False


def test_coefficients_verbs():
    code, report = run_command(["coefficients"])
    assert code == EXIT_CONFIRMED
    fam = report["data"]["family"]
    assert fam == {
        "alpha1": "0",
        "alpha2": "0",
        "alpha3": "1 + L",
        "alpha4": "L",
        "alpha5": "0",
        "alpha6": "0",
        "alpha7": "-2*L",
    }
    code, report = run_command(["coefficients", "--field", "gf2"])
    assert code == EXIT_CONFIRMED
    assert report["data"]["family"]["alpha7"] == "0"


@pytest.mark.parametrize("name", ["q", "gf2", "gf5"])
def test_coefficient_texts_evaluate_to_hand_built(name):
    """The ansatz and goal texts, with t := x o y, parse to the products
    built from the operations."""
    field = field_from_name(name)
    gens, targets, rhs = coefficient_targets(field)
    x, y, z = (FreePoly.generator(gens, field, n) for n in "xyz")
    t = circ(x, y)
    assert targets == [
        (x * z * y * t).symmetrize(),
        (x * z * t * y).symmetrize(),
        (t * z * x * y).symmetrize(),
        (t * z * y * x).symmetrize(),
        (y * z * t * x).symmetrize(),
        (y * z * x * t).symmetrize(),
        u_apply(t, z),
    ]
    assert rhs == (t * z * x * y).symmetrize()


def test_albert_verb_small_run():
    code, report = run_command(["albert", "--samples", "3", "--seed", "42"])
    assert code == EXIT_CONFIRMED
    data = report["data"]
    assert data["cubic_pass"] == 3
    assert data["zero_pair"]["u_commutator_zero_pass"] == 3
    assert data["nonvacuous_found"] is True


def _zero_pair_with(**flips):
    real = albert.check_zero_pair
    return lambda a, b: real(a, b)._replace(**flips)


def _no_noncommuting_pair(rng):
    raise RuntimeError("no noncommuting pair found")


#: Every fact of ZeroPairChecks but the dichotomy witnesses s_ab_zero and a2b_zero.
ZERO_PAIR_FACTS = [f for f in albert.ZeroPairChecks._fields if f not in ("s_ab_zero", "a2b_zero")]

ALBERT_FAULTS = {
    "cubic": ("check_cubic", lambda a: albert.AlbertElement.unit()),
    "eq1": ("check_eq1", lambda a, b: albert.AlbertElement.unit()),
    "operator_identity": ("check_operator_identity", lambda a, b: False),
    **{k: ("check_zero_pair", _zero_pair_with(**{k: False})) for k in ZERO_PAIR_FACTS},
    "dichotomy": ("check_zero_pair", _zero_pair_with(s_ab_zero=False, a2b_zero=False)),
    "nonvacuous": ("find_noncommuting_pair", _no_noncommuting_pair),
}


@pytest.mark.parametrize("fault", [None, *ALBERT_FAULTS])
def test_every_albert_check_gates_the_verdict(monkeypatch, fault):
    """The albert verb is refuted when any one of its checks fails."""
    if fault is not None:
        monkeypatch.setattr(albert, *ALBERT_FAULTS[fault])
    code, report = run_command(["albert", "--samples", "2", "--seed", "7"])
    assert (code, report["verdict"]) == ((EXIT_CONFIRMED, "confirmed") if fault is None else (EXIT_REFUTED, "refuted"))


def test_albert_rejects_prime_field():
    code, report = run_command(["albert", "--samples", "1", "--field", "gf2"])
    assert code == EXIT_ERROR


def test_parse_verb():
    code, report = run_command(["parse", "--expr", "U(x; z) + 0*y"])
    assert code == EXIT_CONFIRMED
    assert report["data"]["canonical"] == "x*z*x"
    assert report["data"]["round_trip"] is True


@pytest.mark.parametrize(
    "expr, canonical",
    [
        (BIG, BIG),
        ("9" * 3000 + "*" + "9" * 3000 + "*x", f"{Decimal((10**3000 - 1) ** 2)}*x"),
        (f"1/{BIG}*x + {BIG}/3*y", f"1/{BIG}*x + {BIG}/3*y"),
    ],
    ids=["5000-digit literal", "6000-digit product", "5000-digit denominator"],
)
def test_parse_verb_takes_integers_of_any_length(expr, canonical):
    """The grammar's INT has no length bound, and a Q coefficient prints
    exactly however many digits it has."""
    code, report = run_command(["parse", "--field", "q", "--expr", expr])
    assert code == EXIT_CONFIRMED
    assert report["data"]["canonical"] == canonical
    assert report["data"]["round_trip"] is True


@pytest.mark.parametrize("scale", [BIG, f"1/{BIG}"], ids=["5000-digit factor", "5000-digit denominator"])
def test_counterexample_witness_with_long_coefficient(scale):
    """A scalar multiple of the default witness is a gap witness whatever
    the length of the scalar, with the same ideal dimensions."""
    code, report = run_command(["counterexample", "--field", "q", "--witness", f"{scale}*({COMMUTATOR_WITNESS})"])
    assert code == EXIT_CONFIRMED
    assert report["verdict"] == "confirmed"
    assert (report["data"]["outer_dim"], report["data"]["assoc_dim"]) == (10, 21)


def test_parse_verb_syntax_error():
    code, report = run_command(["parse", "--expr", "x +"])
    assert code == EXIT_ERROR
    assert "error" in report


def test_usage_error_exit_code():
    code, report = run_command(["lemma1", "--field", "gf4"])
    assert code == EXIT_ERROR
    code, report = run_command(["nonsense-verb"])
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["albert", "--samples", "-3"],
        ["albert", "--samples", "0"],
        ["dims", "--multidegree", "a,b,c,d"],
        ["dims", "--vars", "x,x"],
        ["dims", "--vars", "one,x", "--multidegree", "1,1"],
        ["dims", "--degree-bound", "2"],
        ["counterexample", "--degree-bound", "3"],
        ["dims", "--degree-bound", "10"],
        ["albert", "--degree-bound", "9"],
        ["counterexample", "--witness", "x*y"],
        ["counterexample", "--witness", "0"],
        ["counterexample", "--witness", "x*x*y*y*z"],
        # (2^61 - 1)^2 has no small factor: refused by size, not by trial division
        ["lemma1", "--field", "gf5316911983139663487003542222693990401"],
        # one field, one name: a leading zero is not another spelling of GF(2)
        ["lemma1", "--field", "gf02"],
        # the linear alphabet needs 1/2 in the field
        ["dims", "--field", "gf2", "--mode", "linear"],
        ["counterexample", "--field", "gf2", "--mode", "linear"],
        pytest.param(["parse", "--expr", DEEP_EXPR], id="parse --expr <1200 nested parentheses>"),
        pytest.param(["parse", "--expr", f"{BIG}/0"], id="parse --expr <5000 digits>/0"),
        # a modulus past Python's int/str digit limit is refused by its length
        pytest.param(["lemma1", "--field", f"gf{BIG}"], id="lemma1 --field gf1<5000 zeros>"),
        pytest.param(["parse", "--field", f"gf{BIG}", "--expr", "x"], id="parse --field gf1<5000 zeros> --expr x"),
        pytest.param(["counterexample", "--witness", DEEP_EXPR], id="counterexample --witness <1200 nested parentheses>"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_is_usage_error(argv):
    """Rejected before any verdict is computed, and quickly: while parsing
    arguments, or, for a witness that is not a nonzero symmetric element of
    multidegree (2,2,1), before the gap check."""
    t0 = time.perf_counter()
    code, report = run_command(argv)
    assert time.perf_counter() - t0 < 1
    assert code == EXIT_ERROR
    assert report["verdict"] == "error"
    assert "Error:" not in report["error"]  # a usage message, not an internal exception


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--field", "gf2", "--seed", "7"],
        ["albert", "--samples", "2", "--seed", "7"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_determinism_modulo_elapsed(argv):
    """Identical command and seed produce identical reports except timing."""
    _, r1 = run_command(argv)
    _, r2 = run_command(argv)
    r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
    assert json.dumps(r1) == json.dumps(r2)


def test_out_file_written(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run_command(["lemma1", "--field", "gf2"])
    assert code == EXIT_CONFIRMED
    proc = subprocess.run(
        [sys.executable, "-m", "jvu.cli", "lemma1", "--field", "gf2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "confirmed"


def test_out_failures_exit_cleanly(tmp_path, capsys):
    """An --out that cannot be written gives one error line and exit 1, and
    leaves no temporary file behind."""
    missing = tmp_path / "missing" / "report.json"
    assert main(["lemma1", "--out", str(missing)]) == EXIT_ERROR
    directory = tmp_path / "report"
    directory.mkdir()
    assert main(["lemma1", "--out", str(directory)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("jvu: error: ") for line in err)
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    assert not any(directory.iterdir())


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "jvu.cli", "dims", "--field", "gf2"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["data"] == {
        "symmetric_dim": 12,
        "jordan_dim": 11,
        "tetrad": {"expr": "sym(t*z*x*y)", "in_jordan_span": False},
    }


#: sha256 of json.dumps(report minus elapsed_ms, indent=2) per argv, recorded
#: before the Albert checks shared one operator set per pair and `dims` read
#: its closure table directly.  A change that adds a report field re-pins these.
REPORT_SHA256 = {
    "lemma1 --field q": "758bb184cdfe3bbb423794a4014ff7d254521bf0db745484bdeb85303629956d",
    "lemma1 --field gf2": "5b325f2d79fbc9c39cc74eb71b57ff89cab6883aa8dea5426af33136b93369f8",
    "lemma1 --field gf5": "fa6c143a0eafaa4953e3a5597457613f038e39db9168870beb2d3fb0ff370fdb",
    "coefficients --field q": "a189bdecc9c28aab735289ae26e496c07bbdef17ed62f9450e0ddfb5fa0dd095",
    "coefficients --field gf2": "a054387b593020dae7c59b8dda2c1540a14d60c8a069666447e3301ac69f07ad",
    "coefficients --field gf5": "0b7ceae6869fb70c1730d5d9d6552e03bff6e396456560e2bdfd4576d32eb022",
    "dims --field gf2": "e19913092d4fe29c6725d58a00fbf36130b7a4272a0ca63e5be3ebc82ccd2f31",
    "dims --field q": "08cb9442319cae329f97952125d583f9e48a44bca521f946fa0acbdc781a2e70",
    "counterexample --field gf2": "e3178125cb18b6935d1d2c8af86f76c4365dd0f44af3145de1cb423900f34374",
    "counterexample --field q": "bb62e42cf3e65c73250edd992544fbfefb9aed8ae905d2c4f084e0fd725e5356",
    "counterexample --field gf2 --witness sym(circ(x,y)*z*x*y)": "e38b80bce1994748a82924e0724e3f2602c99d65609aa34aa1c3fd9692a89e3f",
    "counterexample --field q --witness sym(circ(x,y)*z*x*y)": "55b3b6155f5eb1bd2bd89293701df57d5d8b673cf4132c53a058e3f26d90879f",
    "albert --samples 2 --seed 7": "4893335ee7c7992fe005ef99e9e633a0915d2c5befbd27914ed543576cbf6894",
}


@pytest.mark.parametrize("argv", list(REPORT_SHA256))
def test_reports_pinned(argv):
    code, report = run_command(argv.split())
    assert code == EXIT_CONFIRMED
    del report["elapsed_ms"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[argv]


#: sha256 as in REPORT_SHA256, of reports that exit refuted: the witness lies
#: outside the associative ideal, so its RREF residual is printed there.
REFUTED_REPORT_SHA256 = {
    "counterexample --field q --witness sym(x*x*y*y*z)": "0788872896aaeec1841647b8eef66ece5080bb16d4368b23b8e7fef0e4186753",
    "counterexample --field gf2 --witness sym(x*x*y*y*z)": "46bd03138930cf42d23f581350f7f86a5db85e2485a1299cd3fc3310692496df",
    "counterexample --field gf3 --witness sym(x*x*y*y*z)": "e88fd61ad66453d007e93a66c3c7bf6efd115c8e29afb110227302d0134ede97",
}


@pytest.mark.parametrize("argv", list(REFUTED_REPORT_SHA256))
def test_refuted_reports_pinned(argv):
    code, report = run_command(argv.split())
    assert (code, report["verdict"], report["data"]["witness_in_assoc"]) == (EXIT_REFUTED, "refuted", False)
    assert report["certificates"]["witness_assoc_residual"] == "y*y*x*x*z + z*y*y*x*x"
    del report["elapsed_ms"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REFUTED_REPORT_SHA256[argv]
