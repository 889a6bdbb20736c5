import numpy as np
import pytest

from prepost import (
    CVec,
    NormalizationError,
    ParseError,
    Projector,
    builtin,
    weak_value,
)
from prepost.scenarios import BUILTINS
from prepost.scenfile import ScenarioDoc, StateDecl, parse, serialize, to_scenario

from conftest import NESTED_COEFFICIENTS, diagonal_scenario_text, nested_state_text

THREE_BOX_TEXT = """\
# three boxes, exact surd amplitudes
basis a b c
state psi = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
state phi = (1/sqrt(3)) a + (1/sqrt(3)) b - (1/sqrt(3)) c
pre psi
post phi
proj PC = |c><c|
proj PCc = span(a, b)
obs C = 1*PC + 0*PCc
"""


def test_parse_basic_document():
    doc = parse(THREE_BOX_TEXT)
    assert doc.basis == ("a", "b", "c")
    assert doc.pre == "psi" and doc.post == "phi"
    assert [s.name for s in doc.states] == ["psi", "phi"]
    assert doc.projs[0].kind == "ketbra"
    assert doc.projs[1].args == ("a", "b")
    assert doc.obs[0].terms == ((1.0, "PC"), (0.0, "PCc"))


def test_full_pipeline_reproduces_box_c_weak_value():
    sc = to_scenario(parse(THREE_BOX_TEXT), name="boxes")
    assert sc.name == "boxes"
    report = weak_value(sc.observables["C"], sc.pre, sc.post)
    assert report.value == pytest.approx(-1.0, abs=1e-12)


def test_unicode_aliases_parse_identically():
    text = THREE_BOX_TEXT.replace("sqrt(3)", "√3").replace("|c><c|", "|c⟩⟨c|")
    assert parse(text) == parse(THREE_BOX_TEXT)


def test_reordered_basis_hardy_file_gives_same_weak_values():
    # same physics as the built-in, with the pair basis listed in a
    # different order and decimal amplitudes
    s = repr(float(1.0 / np.sqrt(3.0)))
    text = f"""
basis NOp_NOe Op_Oe NOp_Oe Op_NOe
state psi = {s} NOp_NOe + {s} NOp_Oe + {s} Op_NOe
state phi = 0.5 NOp_NOe + 0.5 Op_Oe - 0.5 NOp_Oe - 0.5 Op_NOe
pre psi
post phi
proj P1 = |NOp_NOe><NOp_NOe|
proj P1c = span(Op_Oe, NOp_Oe, Op_NOe)
proj P2 = |Op_Oe><Op_Oe|
proj P2c = span(NOp_NOe, NOp_Oe, Op_NOe)
obs N1 = 1*P1 + 0*P1c
obs N2 = 1*P2 + 0*P2c
"""
    sc = to_scenario(parse(text))
    assert weak_value(sc.observables["N1"], sc.pre, sc.post).value == pytest.approx(
        -1.0, abs=1e-12
    )
    assert weak_value(sc.observables["N2"], sc.pre, sc.post).value == pytest.approx(
        0.0, abs=1e-12
    )


def test_lines_come_from_parse_alone():
    doc = parse(THREE_BOX_TEXT)
    assert doc.lines == {"a": 2, "b": 2, "c": 2, "psi": 3, "phi": 4, "pre": 5, "post": 6,
                         "PC": 7, "PCc": 8, "C": 9}
    with pytest.raises(ParseError, match="undeclared state 'nope'") as err:
        to_scenario(parse(THREE_BOX_TEXT.replace("pre psi", "pre nope")))
    assert err.value.line == 5
    hand_built = ScenarioDoc(*doc._replace(pre="nope"))
    assert hand_built.lines == {}
    with pytest.raises(ParseError, match="undeclared state 'nope'") as err:
        to_scenario(hand_built)
    assert err.value.line is None


def test_normalize_keyword_must_precede_equals():
    text = "basis a b\nstate x = 1 a normalize\npre x\npost x\n"
    with pytest.raises(ParseError, match="expected '\\+' or '-'"):
        parse(text)


def test_scalar_arithmetic_and_complex_literals():
    text = """
basis a b
state x = (1/2 + 1/2) a
state y = (sqrt(2)/2) a + (1/sqrt(2)) b
state z normalize = 2*3 a - 0.25e1 b
state w normalize = 1.0+2.0i a + (1.0 - 2.0i) b
pre x
post y
"""
    sc = to_scenario(parse(text))
    assert np.allclose(sc.states["x"].vec.amps, [1.0, 0.0])
    assert np.allclose(
        sc.states["y"].vec.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12
    )
    z = sc.states["z"].vec.amps
    assert np.allclose(z, np.array([6.0, -2.5]) / np.linalg.norm([6.0, 2.5]))
    w = sc.states["w"].vec.amps
    expect = np.array([1 + 2j, 1 - 2j]) / np.sqrt(10.0)
    assert np.allclose(w, expect, atol=1e-12)


def test_unnormalized_state_without_keyword_is_rejected():
    text = "basis a b\nstate x = 1 a + 1 b\npre x\npost x\n"
    with pytest.raises(NormalizationError) as err:
        to_scenario(parse(text))
    assert err.value.line == 2


def test_normalize_keyword_accepts_any_scale():
    # the squares of 3e200 overflow and those of 3e-200 underflow
    for exponent in ("", "e200", "e-200"):
        text = f"basis a b\nstate x normalize = 3{exponent} a + 4{exponent} b\npre x\npost x\n"
        sc = to_scenario(parse(text))
        assert np.allclose(sc.states["x"].vec.amps, [0.6, 0.8]), exponent


def test_small_norm_slack_is_renormalized():
    amp = 0.70710671  # off in the 7th place; inside the 1e-6 budget
    text = f"basis a b\nstate x = {amp} a + {amp} b\npre x\npost x\n"
    sc = to_scenario(parse(text))
    assert sc.states["x"].vec.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("factor, rejected", [(1 - 1e-6, False), (1 + 1e-6, True)])
def test_declared_norm_holds_up_to_the_tolerance(factor, rejected):
    # DECLARED_NORM_TOL of 1e-6 is written here: a state without `normalize` of norm
    # 1 + 1e-6 * factor
    amp = 1.0 + 1e-6 * factor
    text = f"basis a b\nstate x = {amp!r} a\npre x\npost x\n"
    if rejected:
        with pytest.raises(NormalizationError, match="declare it with 'normalize'"):
            to_scenario(parse(text))
    else:
        assert to_scenario(parse(text)).states["x"].vec.amps.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("factor, rejected", [(1 - 1e-6, False), (1 + 1e-6, True)])
def test_a_sqrt_argument_is_real_up_to_the_tolerance(factor, rejected):
    # EXACT_TOL of 1e-12 is written here: an imaginary part of 1e-12 * factor under sqrt
    text = f"basis a b\nstate x = sqrt(0.36 + {1e-12 * factor!r}i) a + 0.8 b\n"
    if rejected:
        with pytest.raises(ParseError, match="sqrt argument must be a nonnegative real"):
            parse(text)
    else:
        assert parse(text).states[0].terms[0] == (0.6, "a")


def test_zero_state_is_rejected():
    text = "basis a b\nstate x normalize = 0 a\npre x\npost x\n"
    with pytest.raises(NormalizationError):
        to_scenario(parse(text))


@pytest.mark.parametrize(
    "line, match",
    [
        ("stat x = 1 a", "unknown directive"),
        ("state x 1 a", "expected '='"),
        ("state x =", "unexpected end of line"),
        ("state = 1 a", "expected a name"),
        ("state x = 1 a 1 b", "expected '\\+' or '-'"),
        ("state sqrt = 1 a", "reserved word"),
        ("state x = 1 a @", "unexpected character"),
        ("proj P = |a><b|", "must match"),
        ("proj P = |a>", "unexpected end of line"),
        ("proj P = span()", "expected a name"),
        ("proj P = 1 a", "expected '\\|label><label\\|' or 'span"),
        ("obs O = 1*", "unexpected end of line"),
        ("obs O = 1 P", "expected '\\*'"),
        ("state x = (1/0) a", "division by zero"),
        ("state x = sqrt(0-1) a", "sqrt argument"),
        ("state x = 1 a extra", "expected '\\+' or '-'"),
    ],
)
def test_parse_errors_carry_positions(line, match):
    text = f"basis a b\n{line}\n"
    with pytest.raises(ParseError, match=match) as err:
        parse(text)
    assert err.value.line == 2
    assert err.value.col is not None


@pytest.mark.parametrize("shape", sorted(NESTED_COEFFICIENTS))
def test_deeply_nested_expression_is_a_parse_error(shape):
    # 2000 levels pass any recursion limit whatever the caller's stack depth
    with pytest.raises(ParseError) as info:
        parse(nested_state_text(shape, 2000))
    assert info.value.args == ("expression nested too deeply",)
    assert (info.value.line, info.value.col) == (2, None)
    assert parse(nested_state_text(shape, 100)).states[0].terms == ((1.0, "a"),)


def test_semantic_errors():
    with pytest.raises(ParseError, match="missing basis"):
        to_scenario(parse("state x normalize = 1 x\n"))
    with pytest.raises(ParseError, match="unknown basis label 'q' in state 'x'") as err:
        to_scenario(parse("basis a\nstate x = 1 q\npre x\npost x\n"))
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown label 'q' in projector 'P'") as err:
        to_scenario(parse("basis a\nstate x = 1 a\npre x\npost x\nproj P = span(a, q)\n"))
    assert err.value.line == 5
    with pytest.raises(ParseError, match="missing pre"):
        to_scenario(parse("basis a\nstate x = 1 a\npost x\n"))
    with pytest.raises(ParseError, match="missing post"):
        to_scenario(parse("basis a\nstate x = 1 a\npre x\n"))
    with pytest.raises(ParseError, match="undeclared state"):
        to_scenario(parse("basis a\nstate x = 1 a\npre y\npost x\n"))
    with pytest.raises(ParseError, match="unknown projector"):
        to_scenario(
            parse("basis a\nstate x = 1 a\npre x\npost x\nobs O = 1*P\n")
        )
    with pytest.raises(ParseError, match="duplicate basis"):
        parse("basis a\nbasis b\n")
    with pytest.raises(ParseError, match="already declared"):
        parse("basis a a\n")
    with pytest.raises(ParseError, match="duplicate pre"):
        parse("basis a\nstate x = 1 a\npre x\npre x\n")


def test_incomplete_observable_is_rejected():
    text = """
basis a b
state x = 1 a
pre x
post x
proj P = |a><a|
obs O = 1*P
"""
    with pytest.raises(ParseError, match="not a spectral decomposition"):
        to_scenario(parse(text))


def test_repeated_eigenvalue_is_rejected():
    text = """
basis a b
state x = 1 a
pre x
post x
proj P = |a><a|
proj Q = |b><b|
obs O = 1*P + {}*Q
"""
    # within DEGENERACY_TOL (1e-8) two eigenvalues are one, beyond it they are two
    for second, rejected in (("1", True), ("1.000000005", True), ("1.00000005", False)):
        if rejected:
            with pytest.raises(ParseError, match="repeats eigenvalue 1$"):
                to_scenario(parse(text.format(second)))
        else:
            lams = to_scenario(parse(text.format(second))).observables["O"].eigenvalues
            assert lams == (1.0, float(second))


def test_complex_eigenvalue_is_rejected():
    text = "basis a b\nproj P = |a><a|\nobs O = 1i*P\n"
    with pytest.raises(ParseError, match="must be real"):
        parse(text)


_SMALL_SPECTRUM = "basis a b\nstate psi = 1 a\npre psi\npost psi\nproj P = |a><a|\nproj Q = |b><b|\n"


def test_complex_eigenvalue_is_rejected_on_the_spectrum_scale():
    # Q's imaginary part is 1% of the spectrum, though below REAL_TOL
    text = _SMALL_SPECTRUM + "obs T = 0.000000000001*P + 0.00000000000001i*Q\n"
    with pytest.raises(ParseError, match="eigenvalue for 'Q' must be real") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (7, text.splitlines()[6].index("Q") + 1)
    # 1e-11i next to eigenvalue 1 lies within REAL_TOL of the spectrum
    doc = parse(_SMALL_SPECTRUM + "obs O = 0.00000000001i*P + 1*Q\n")
    assert doc.obs[0].terms == ((0.0, "P"), (1.0, "Q"))
    # the bound is REAL_TOL times the largest |eigenvalue|, at every scale; its 1e-10 is
    # written here, so a changed table entry fails
    for scale in (1.0, 1e6):
        under, over = (1e-10 * scale * factor for factor in (1 - 1e-6, 1 + 1e-6))
        doc = parse(_SMALL_SPECTRUM + f"obs O = {scale!r}*P + {under!r}i*Q\n")
        assert doc.obs[0].terms == ((scale, "P"), (0.0, "Q"))
        with pytest.raises(ParseError, match="eigenvalue for 'Q' must be real"):
            parse(_SMALL_SPECTRUM + f"obs O = {scale!r}*P + {over!r}i*Q\n")


@pytest.mark.parametrize(
    "directive", ["obs O = (1.5e308+1.5e308i)*P + 1*Q", "state s = (1.5e308+1.5e308i) a"]
)
def test_coefficient_whose_size_overflows_is_not_finite(directive):
    # both parts are finite doubles but |coefficient| is not, so no scaled bound holds
    text = _SMALL_SPECTRUM + directive + "\n"
    with pytest.raises(ParseError, match="coefficient .* is not finite") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (7, directive.index("(") + 1)


@pytest.mark.parametrize("terms", ["1e308 a + 1e308 a", "- 1e308i a - 1e308i a + 1 b"])
def test_terms_that_sum_past_a_double_are_one_positioned_error(terms):
    # each term is finite, but one label's sum is not: no overflow warning, one error
    text = f"basis a b\nstate psi normalize = {terms}\npre psi\npost psi\n"
    with pytest.raises(NormalizationError) as err:
        to_scenario(parse(text))
    message = "state 'psi' sums a basis label's terms past a double"
    assert (err.value.line, err.value.args) == (2, (message,))


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_real_spectrum_parses_at_every_scale(scale):
    text = _SMALL_SPECTRUM + f"obs O = {scale!r}*P + {-2 * scale!r}*Q\n"
    sc = to_scenario(parse(text))
    assert sc.observables["O"].eigenvalues == (-2 * scale, scale)


def test_projector_onto_declared_state():
    text = """
basis a b
state plus = (1/sqrt(2)) a + (1/sqrt(2)) b
state minus = (1/sqrt(2)) a - (1/sqrt(2)) b
pre plus
post minus
proj Pp = |plus><plus|
proj Pm = span(minus)
obs O = 1*Pp + 0*Pm
"""
    sc = to_scenario(parse(text))
    p = sc.observables["O"].projector_for(1.0)
    assert np.allclose(p.mat.entries, np.full((2, 2), 0.5))


def test_span_keeps_directions_after_a_dependent_entry():
    text = """
basis a b c
state psi = -1 a
state u = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
pre u
post u
proj P = span(a, psi, b)
proj Pc = |c><c|
obs O = 1*P + 0*Pc
"""
    p = to_scenario(parse(text)).observables["O"].projector_for(1.0)
    assert p.rank == 2
    assert np.allclose(p.mat.entries, np.diag([1.0, 1.0, 0.0]))


def test_label_projectors_are_identity_columns_in_label_order():
    # a ket-bra or span of basis labels takes exact 0/1 columns, as
    # Projector.on_labels does: no SVD sign or rounding
    sc = to_scenario(parse(diagonal_scenario_text(128, np.random.default_rng(5))))
    ranks = []
    for obs in sc.observables.values():
        for proj in obs.projectors:
            rows = np.flatnonzero(proj.q.any(axis=1))
            assert np.array_equal(proj.q, np.eye(128)[:, rows])
            ranks.append(proj.rank)
    assert sorted(ranks) == [1] * 128 + [42, 86]


def test_span_of_a_label_and_a_state_takes_the_svd_route():
    text = """
basis a b c
state psi normalize = 1 a + 2i b
pre psi
post psi
proj P = span(a, psi)
proj Pc = |c><c|
obs O = 1*P + 0*Pc
"""
    sc = to_scenario(parse(text))
    p = sc.observables["O"].projector_for(1.0)
    svd = Projector.span([CVec.basis_vector("a", sc.basis_labels), sc.states["psi"].vec])
    assert np.array_equal(p.q, svd.q)


def test_doc_round_trip_on_builtins():
    for text, _ in BUILTINS.values():
        doc = parse(text)
        assert parse(serialize(doc)) == doc


def test_serialized_builtins_rebuild_identical_physics():
    # repr decimals round-trip, so the serialized text rebuilds the builtin's exact doubles
    for name, (text, _) in BUILTINS.items():
        sc = builtin(name)
        sc2 = to_scenario(parse(serialize(parse(text))), name=name)
        assert np.array_equal(sc2.pre.vec.amps, sc.pre.vec.amps)
        assert np.array_equal(sc2.post.vec.amps, sc.post.vec.amps)
        for obs_name, obs in sc.observables.items():
            assert np.array_equal(sc2.observables[obs_name].v, obs.v)
            assert sc2.observables[obs_name].eigenvalues == obs.eigenvalues


def test_negative_and_complex_coefficients_round_trip():
    doc = ScenarioDoc(
        basis=("a", "b"),
        states=(
            StateDecl("x", ((complex(-0.6, 0.0), "a"), (complex(0.0, -0.8), "b"))),
            StateDecl("y", ((complex(0.6, -0.8), "a"),)),
            StateDecl("z", ((complex(-0.6, 0.8), "a"),)),
        ),
        pre="x",
        post="y",
    )
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize(
    "rhs, terms",
    [
        ("-0.6+0.8i a", [(complex(-0.6, 0.8), "a")]),
        ("0.8 b -0.6+0.8i a", [(0.8, "b"), (complex(-0.6, 0.8), "a")]),
        ("0.8 b-0.6-0.8i a", [(0.8, "b"), (complex(-0.6, -0.8), "a")]),
        ("(1 -0.6+0.8i) a", [(complex(0.4, 0.8), "a")]),
        ("-0.8i a", [(complex(0.0, -0.8), "a")]),
        ("-0+0.8i a", [(complex(-0.0, 0.8), "a")]),  # a written real part, though zero
    ],
)
def test_minus_against_a_complex_literal_negates_its_real_part(rhs, terms):
    doc = parse(f"basis a b\nstate p = {rhs}\n")
    assert doc.states[0].terms == tuple((complex(c), lab) for c, lab in terms)


@pytest.mark.parametrize(
    "rhs, terms",
    [
        ("- 0.6-0.8i a", [(complex(-0.6, 0.8), "a")]),
        ("- 0.6+0.8i a", [(complex(-0.6, -0.8), "a")]),
        ("0.8 b - 0.6-0.8i a", [(0.8, "b"), (complex(-0.6, 0.8), "a")]),
    ],
)
def test_spaced_minus_negates_the_whole_complex_literal(rhs, terms):
    doc = parse(f"basis a b\nstate p = {rhs}\n")
    assert doc.states[0].terms == tuple((complex(c), lab) for c, lab in terms)


def test_complex_amplitudes_round_trip_in_every_quadrant():
    quadrants = [complex(0.6, 0.8), complex(-0.6, 0.8), complex(-0.6, -0.8), complex(0.6, -0.8)]
    for first in quadrants:
        for second in quadrants:
            doc = ScenarioDoc(
                basis=("a", "b"),
                states=(StateDecl("x", ((first / 2**0.5, "a"), (second / 2**0.5, "b"))),),
            )
            assert parse(serialize(doc)) == doc


def test_comments_and_blank_lines_are_ignored():
    text = "\n# header\nbasis a b  # trailing comment\n\nstate x = 1 a\npre x\npost x\n"
    doc = parse(text)
    assert doc.basis == ("a", "b")
    assert doc.states[0].terms == ((complex(1.0), "a"),)


# the separators str.splitlines breaks at besides \n, \r\n and \r
OTHER_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_SEPARATORS)
def test_other_line_separators_are_whitespace(sep):
    base = parse(THREE_BOX_TEXT)
    variants = (
        THREE_BOX_TEXT.replace("# three boxes,", f"# three{sep}boxes here,"),
        THREE_BOX_TEXT.replace("0*PCc", f"0*PCc  # page{sep}break here"),
        THREE_BOX_TEXT.replace("basis a b c", f"basis a {sep}b c"),
        THREE_BOX_TEXT.replace("0*PCc", f"0*{sep}PCc"),
    )
    for text in variants:
        doc = parse(text)
        assert doc == base and doc.lines == base.lines


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_lines_end_at_lf_crlf_and_cr(end):
    base = parse(THREE_BOX_TEXT)
    doc = parse(THREE_BOX_TEXT.replace("\n", end))
    assert doc == base and doc.lines == base.lines
    bad = THREE_BOX_TEXT.replace("(1/sqrt(3)) b +", "(1/sqrt(3)) b b", 1).replace("\n", end)
    with pytest.raises(ParseError, match="expected '\\+' or '-' between terms, got 'b'") as err:
        parse(bad)
    assert (err.value.line, err.value.col) == (3, 43)

