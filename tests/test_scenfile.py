import numpy as np
import pytest

from prepost import (
    NormalizationError,
    ParseError,
    hardy,
    three_box,
    weak_value,
)
from prepost.scenfile import (
    ScenarioDoc,
    StateDecl,
    doc_from_scenario,
    parse,
    serialize,
    to_scenario,
)

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
    text = "basis a b\nstate x normalize = 3 a + 4 b\npre x\npost x\n"
    sc = to_scenario(parse(text))
    assert np.allclose(sc.states["x"].vec.amps, [0.6, 0.8])


def test_small_norm_slack_is_renormalized():
    amp = 0.70710671  # off in the 7th place; inside the 1e-6 budget
    text = f"basis a b\nstate x = {amp} a + {amp} b\npre x\npost x\n"
    sc = to_scenario(parse(text))
    assert sc.states["x"].vec.norm() == pytest.approx(1.0, abs=1e-15)


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


def test_semantic_errors():
    with pytest.raises(ParseError, match="missing basis"):
        to_scenario(parse("state x normalize = 1 x\n"))
    with pytest.raises(ParseError, match="unknown basis label"):
        to_scenario(parse("basis a\nstate x = 1 q\npre x\npost x\n"))
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
obs O = 1*P + 1*Q
"""
    with pytest.raises(ParseError, match="repeats eigenvalue"):
        to_scenario(parse(text))


def test_complex_eigenvalue_is_rejected():
    text = "basis a b\nproj P = |a><a|\nobs O = 1i*P\n"
    with pytest.raises(ParseError, match="must be real"):
        parse(text)


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


def test_doc_round_trip_on_builtins():
    for build in (three_box, hardy):
        doc = doc_from_scenario(build())
        assert parse(serialize(doc)) == doc


def test_serialized_builtins_rebuild_identical_physics():
    for build in (three_box, hardy):
        sc = build()
        sc2 = to_scenario(parse(serialize(doc_from_scenario(sc))), name=sc.name)
        assert np.allclose(sc2.pre.vec.amps, sc.pre.vec.amps, atol=1e-12)
        assert np.allclose(sc2.post.vec.amps, sc.post.vec.amps, atol=1e-12)
        for name, obs in sc.observables.items():
            assert np.allclose(
                sc2.observables[name].mat.entries, obs.mat.entries, atol=1e-12
            )


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
