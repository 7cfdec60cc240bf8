import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_program
from ionflow import textir
from ionflow.ir import Measure, QGate, validate_profile, diagnostics_ok
from ionflow.textir import ParseError, emit, parse


def wrap(body: str, qubits: int = 3, results: int = 5) -> str:
    return f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"


def test_plain_gate():
    m = parse(wrap("block e:\n  h q0\n  ret"))
    assert m.entry_function.entry.body[0] == QGate("h", (0,))


def test_appendix_rotation_angle():
    m = parse(wrap("block e:\n  rz(2.214297435588181) q2\n  ret"))
    g = m.entry_function.entry.body[0]
    assert g == QGate("rz", (2,), 2.214297435588181)
    assert g.angle == 2 * math.atan(2)


def test_duplicate_branch_target_rejected():
    with pytest.raises(ParseError, match="DUPLICATE_TARGET"):
        parse(wrap("block e:\n  %m = read_result r0\n  br %m, a, a\nblock a:\n  ret"))


def test_measure_and_read():
    m = parse(wrap("block e:\n  mz q1 -> r3\n  %b = read_result r3\n  ret"))
    assert m.entry_function.entry.body[0] == Measure(1, 3)


def test_comments_ignored():
    m = parse(wrap("block e:\n  h q0 ; a comment\n  ; full line\n  ret"))
    assert len(m.entry_function.entry.body) == 1


def test_parse_error_has_location_and_expected():
    try:
        parse("module t\nattrs required_qubits=1 required_results=1\nfunc @main() {\nblock e:\n  h\n  ret\n}\n")
    except ParseError as e:
        assert (e.line, e.col) == (6, 3)  # reported at the unexpected token
        assert "q<N>" in e.expected
    else:
        pytest.fail("expected ParseError")


def test_empty_function_roundtrip():
    src = wrap("block entry:\n  ret", qubits=0, results=0)
    m = parse(src)
    assert parse(emit(m)) == m


def test_float_roundtrip_pi_over_4():
    m = parse(wrap(f"block e:\n  rz({math.pi / 4!r}) q0\n  ret"))
    text = emit(m)
    assert "0.7853981633974483" in text
    assert parse(text) == m


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_random_corpus(seed):
    m = random_program(seed)
    assert parse(emit(m)) == m


def test_roundtrip_rus_loop_program():
    from ionflow.experiments import RusConfig, build_rus
    from ionflow.toolchain import run_passes

    m = build_rus(RusConfig(limit=3, style="loop"))
    again = parse(emit(m))
    assert again == m
    flat = run_passes(again)
    assert diagnostics_ok(validate_profile(flat, strict=True))


def test_call_argument_kinds_roundtrip():
    src = (
        "module t\nattrs required_qubits=2 required_results=1\n"
        "func @main() {\nblock e:\n  call @f(q1, 3)\n  ret\n}\n"
        "func @f(%q: qubit, %k: int) {\nblock e:\n  h %q\n  ret\n}\n"
    )
    m = parse(src)
    assert parse(emit(m)) == m


def test_repeat_desugars_to_counted_loop():
    src = (
        "module t\nattrs required_qubits=1 required_results=1\n"
        "func @main() {\nblock entry:\n  jmp lp\n"
        "repeat 4 lp {\nblock body:\n  h q0\n  jmp next\n}\n"
        "block fin:\n  mz q0 -> r0\n  output result r0\n  ret\n}\n"
    )
    m = parse(src)
    labels = [b.label for b in m.entry_function.blocks]
    assert "lp" in labels and any(l.startswith("lp.latch") for l in labels)
    diags = validate_profile(m, strict=False)
    assert any(d.code == "BACK_EDGE" and d.severity == "warning" for d in diags)
    assert diagnostics_ok(diags)


def test_repeat_must_be_followed_by_block():
    src = (
        "module t\nattrs required_qubits=1 required_results=1\n"
        "func @main() {\nblock entry:\n  jmp lp\n"
        "repeat 2 lp {\nblock body:\n  jmp next\n}\n}\n"
    )
    with pytest.raises(ParseError):
        parse(src)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_crashes_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=120))
def test_parser_never_crashes_on_bytes(data):
    try:
        parse(data.decode("latin-1"))
    except ParseError:
        pass


# -- tokenizer against the one-token-per-match reference -----------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>;[^\n]*)
  | (?P<newline>\n)
  | (?P<float>[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d*\.\d+(?:[eE][+-]?\d+)?))
  | (?P<int>[+-]?\d+)
  | (?P<vreg>%[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<func>@[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>->|[(){}\[\],:=])
    """,
    re.VERBOSE,
)


def reference_tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """One match per token, blank run or comment, counting line and column as it goes."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _REFERENCE_TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind, text = m.lastgroup, m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append((kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def token_stream(tokenize, src: str):
    try:
        return [tuple(t) for t in tokenize(src)]
    except ParseError as e:
        return ("error", str(e))


def corpus_sources():
    from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus

    for basis in BASES:
        yield from (emit(build_msd(MsdConfig(limit, basis))) for limit in range(9))
        yield from (emit(build_rus(RusConfig(limit, basis, "loop"))) for limit in range(1, 9))
        yield from (emit(build_rus(RusConfig(limit, basis, "recursion"))) for limit in range(1, 8))
    yield from (emit(random_program(seed)) for seed in range(300))


def test_tokenize_matches_reference_on_corpus():
    for src in corpus_sources():
        assert token_stream(textir.tokenize, src) == token_stream(reference_tokenize, src)


@pytest.mark.parametrize(
    "src, line, col",
    [
        ("module t\n\t$", 2, 2),  # after a tab
        ("module t ; note $\n  h q0 $", 2, 8),  # after a comment, which hides the first '$'
        ("module t\r\nattrs $\r\n", 2, 7),  # on a CRLF line
        ("module t\r\n  ;\r\n\t \t#", 3, 4),
    ],
    ids=["after-tab", "after-comment", "crlf", "crlf-comment-blanks"],
)
def test_bad_character_location(src, line, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert token_stream(textir.tokenize, src) == token_stream(reference_tokenize, src)


@pytest.mark.parametrize("src, line, col", [("module", 1, 7), ("module t\nattrs  ", 2, 8), ("module t ; x", 1, 13)])
def test_error_at_eof_without_trailing_newline(src, line, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert token_stream(textir.tokenize, src)[-1] == ("eof", "", line, col)
    assert token_stream(textir.tokenize, src) == token_stream(reference_tokenize, src)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("mod@%q1.-+e \t\r\n;[]->=,:{}$é")), max_size=80))
def test_tokenize_matches_reference_on_arbitrary_text(src):
    assert token_stream(textir.tokenize, src) == token_stream(reference_tokenize, src)
