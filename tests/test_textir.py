import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_program
from ionflow import textir
from ionflow.ir import (
    BINOPS,
    CMPOPS,
    GATE_SET,
    ROTATION_GATES,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cmp,
    Function,
    Instruction,
    Jump,
    Measure,
    Module,
    Output,
    Phi,
    QGate,
    QubitRef,
    ReadResult,
    Reset,
    Return,
    Terminator,
    Value,
    Vreg,
    diagnostics_ok,
    retarget,
    validate_profile,
)
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
    re.VERBOSE | re.ASCII,  # a literal's digits are ASCII
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


# -- parser against the token-object reference --------------------------------


class _ReferenceParser:
    def __init__(self, src: str):
        self.tokens = textir.tokenize(src)
        self.pos = 0
        self.repeat_counter = 0

    def peek(self) -> textir.Token:
        return self.tokens[self.pos]

    def next(self) -> textir.Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: textir.Token | None = None, expected: tuple[str, ...] = ()) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col, expected)

    def expect(self, kind: str, text: str | None = None) -> textir.Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(f"got {tok.text!r}", tok, expected=(want,))
        return self.next()

    # -- module level -------------------------------------------------------

    def parse_module(self) -> Module:
        self.expect("ident", "module")
        name = self.expect("ident").text
        self.expect("ident", "attrs")
        attrs: dict[str, int] = {}
        for _ in range(2):
            key = self.expect("ident").text
            self.expect("punct", "=")
            attrs[key] = int(self.expect("int").text)
        if set(attrs) != {"required_qubits", "required_results"}:
            raise self.error(f"attrs must be required_qubits and required_results, got {sorted(attrs)}")
        if attrs["required_qubits"] < 0 or attrs["required_results"] < 0:
            raise self.error("attrs must be non-negative")
        functions: list[Function] = []
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
        if not functions:
            raise self.error("module has no functions")
        entry = functions[0].name
        for f in functions:
            if f.name == "main":
                entry = "main"
        return Module(
            name=name,
            functions=tuple(functions),
            entry=entry,
            required_qubits=attrs["required_qubits"],
            required_results=attrs["required_results"],
        )

    def parse_function(self) -> Function:
        self.expect("ident", "func")
        name = self.expect("func").text[1:]
        self.expect("punct", "(")
        params: list[tuple[Vreg, str]] = []
        while self.peek().text != ")":
            v = Vreg(self.expect("vreg").text[1:])
            self.expect("punct", ":")
            ty = self.expect("ident").text
            if ty not in ("int", "bool", "float", "qubit"):
                raise self.error(f"unknown parameter type '{ty}'")
            params.append((v, ty))
            if self.peek().text == ",":
                self.next()
        self.expect("punct", ")")
        self.expect("punct", "{")
        blocks = self.parse_block_list()
        self.expect("punct", "}")
        if not blocks:
            raise self.error("function has no blocks")
        return Function(name=name, params=tuple(params), blocks=textir._start_counters(blocks))

    def parse_block_list(self) -> list[BasicBlock]:
        blocks: list[BasicBlock] = []
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "block":
                blocks.append(self.parse_block())
            elif tok.kind == "ident" and tok.text == "repeat":
                blocks.extend(self.parse_repeat())
            else:
                return blocks

    def parse_repeat(self) -> list[BasicBlock]:
        """Desugar `repeat n label { blocks }` into a counted back-edge loop."""
        kw = self.expect("ident", "repeat")
        trips = int(self.expect("int").text)
        if trips < 0:
            raise ParseError("repeat count must be >= 0", kw.line, kw.col)
        head_label = self.expect("ident").text
        self.expect("punct", "{")
        body = self.parse_block_list()
        self.expect("punct", "}")
        if not body:
            raise self.error("repeat body has no blocks")
        # the block after the repeat is the loop exit
        after = self.peek()
        if not (after.kind == "ident" and after.text == "block"):
            raise self.error("repeat must be followed by a block", after, expected=("block",))
        exit_target = self.tokens[self.pos + 1].text

        uid = self.repeat_counter
        self.repeat_counter += 1
        latch_label = f"{head_label}.latch{uid}"
        ctr = Vreg(f"{head_label}.i{uid}")
        ctr_next = Vreg(f"{head_label}.inc{uid}")
        cond = Vreg(f"{head_label}.more{uid}")

        body_entry = body[0].label
        rewritten = [retarget(b, textir.NEXT_LABEL, latch_label) for b in body]
        head = BasicBlock(
            label=head_label,
            phis=(Phi(ctr, ((0, textir.OUTSIDE), (ctr_next, latch_label))),),
            body=(Cmp("lt", cond, ctr, trips),),
            terminator=Branch(cond, body_entry, exit_target),
        )
        latch = BasicBlock(
            label=latch_label,
            phis=(),
            body=(BinOp("add", ctr_next, ctr, 1),),
            terminator=Jump(head_label),
        )
        return [head, *rewritten, latch]

    def parse_block(self) -> BasicBlock:
        self.expect("ident", "block")
        label = self.expect("ident").text
        self.expect("punct", ":")
        phis: list[Phi] = []
        body: list[Instruction] = []
        terminator: Terminator | None = None
        while terminator is None:
            tok = self.peek()
            if tok.kind == "eof":
                raise self.error(f"block '{label}' has no terminator", tok, expected=("jmp", "br", "ret"))
            if tok.kind == "vreg":
                dst, rhs = self.parse_assignment()
                if isinstance(rhs, Phi):
                    if body:
                        raise self.error("phi must appear before other instructions", tok)
                    phis.append(rhs)
                else:
                    body.append(rhs)
            elif tok.kind == "ident":
                item = self.parse_statement()
                if isinstance(item, (Jump, Branch, Return)):
                    terminator = item
                else:
                    body.append(item)
            else:
                raise self.error(f"got {tok.text!r}", tok, expected=("instruction",))
        return BasicBlock(label=label, phis=tuple(phis), body=tuple(body), terminator=terminator)

    # -- instructions --------------------------------------------------------

    def parse_assignment(self):
        dst = Vreg(self.expect("vreg").text[1:])
        self.expect("punct", "=")
        op = self.expect("ident").text
        if op == "phi":
            incomings: list[tuple[Value, str]] = []
            while True:
                self.expect("punct", "[")
                v = self.parse_value()
                self.expect("punct", ",")
                frm = self.expect("ident").text
                self.expect("punct", "]")
                incomings.append((v, frm))
                if self.peek().text == ",":
                    self.next()
                else:
                    break
            return dst, Phi(dst, tuple(incomings))
        if op == "read_result":
            slot = self.parse_result_ref()
            return dst, ReadResult(dst, slot)
        if op in BINOPS:
            a = self.parse_value()
            self.expect("punct", ",")
            b = self.parse_value()
            return dst, BinOp(op, dst, a, b)
        if op == "cmp":
            cmp_op = self.expect("ident").text
            if cmp_op not in CMPOPS:
                raise self.error(f"unknown comparison '{cmp_op}'", expected=CMPOPS)
            a = self.parse_value()
            self.expect("punct", ",")
            b = self.parse_value()
            return dst, Cmp(cmp_op, dst, a, b)
        raise self.error(f"unknown assignment op '{op}'", expected=("phi", "read_result", "cmp") + BINOPS)

    def parse_statement(self):
        tok = self.next()
        word = tok.text
        if word == "jmp":
            return Jump(self.expect("ident").text)
        if word == "br":
            cond = Vreg(self.expect("vreg").text[1:])
            self.expect("punct", ",")
            then_t = self.expect("ident").text
            self.expect("punct", ",")
            else_t = self.expect("ident").text
            if then_t == else_t:
                raise ParseError(f"DUPLICATE_TARGET: both branch arms go to '{then_t}'", tok.line, tok.col)
            return Branch(cond, then_t, else_t)
        if word == "ret":
            return Return()
        if word == "mz":
            q = self.parse_qubit_ref()
            self.expect("punct", "->")
            slot = self.parse_result_ref()
            return Measure(q, slot)
        if word == "reset":
            return Reset(self.parse_qubit_ref())
        if word == "output":
            kind = self.expect("ident").text
            if kind == "result":
                return Output("result", self.parse_result_ref())
            return Output(kind)
        if word == "call":
            callee = self.expect("func").text[1:]
            self.expect("punct", "(")
            args: list[Value] = []
            while self.peek().text != ")":
                args.append(self.parse_call_arg())
                if self.peek().text == ",":
                    self.next()
            self.expect("punct", ")")
            return Call(callee, tuple(args))
        if word in GATE_SET:
            angle: Value | None = None
            if self.peek().text == "(":
                self.next()
                angle = self.parse_value()
                self.expect("punct", ")")
            qubits = [self.parse_qubit_ref()]
            while self.peek().text == ",":
                self.next()
                qubits.append(self.parse_qubit_ref())
            if word in ROTATION_GATES and angle is None:
                raise ParseError(f"{word} requires an angle", tok.line, tok.col)
            return QGate(word, tuple(qubits), angle)
        raise ParseError(f"unknown instruction '{word}'", tok.line, tok.col)

    # -- operands -------------------------------------------------------------

    def parse_qubit_ref(self) -> QubitRef:
        tok = self.peek()
        if tok.kind == "ident":
            m = textir._QUBIT_RE.match(tok.text)
            if m:
                self.next()
                return int(m.group(1))
        if tok.kind == "vreg":
            v = Vreg(self.next().text[1:])
            return v
        raise self.error(f"got {tok.text!r}", tok, expected=("q<N>", "%vreg"))

    def parse_result_ref(self) -> int:
        tok = self.expect("ident")
        m = textir._RESULT_RE.match(tok.text)
        if not m:
            raise ParseError(f"expected result ref r<N>, got {tok.text!r}", tok.line, tok.col)
        return int(m.group(1))

    def parse_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "vreg":
            return Vreg(self.next().text[1:])
        if tok.kind == "int":
            return int(self.next().text)
        if tok.kind == "float":
            return float(self.next().text)
        if tok.kind == "ident" and tok.text in ("true", "false"):
            return self.next().text == "true"
        raise self.error(f"got {tok.text!r}", tok, expected=("literal", "%vreg"))

    def parse_call_arg(self) -> Value:
        tok = self.peek()
        if tok.kind == "ident":
            m = textir._QUBIT_RE.match(tok.text)
            if m:
                self.next()
                return int(m.group(1))
        return self.parse_value()


def reference_parse(src: str) -> Module:
    """Today's parser's reference: one ``Token`` per token, each carrying its line and column."""
    try:
        return _ReferenceParser(src).parse_module()
    except RecursionError:
        raise ParseError("input nests too deeply", 0, 0)
    except ParseError:
        raise
    except ValueError as e:  # int() of a literal past Python's limit on digits
        raise ParseError(str(e), 0, 0) from None


def parse_outcome(parse, src: str):
    """The module, or the ParseError's message, position and expected tokens."""
    try:
        return parse(src)
    except ParseError as e:
        return ("error", str(e), e.line, e.col, e.expected)


def test_parse_matches_reference_on_corpus():
    for src in corpus_sources():
        assert parse_outcome(parse, src) == parse_outcome(reference_parse, src)


TOKEN_ALPHABET = (
    "module", "attrs", "required_qubits", "required_results", "func", "@main", "@f", "(", ")", "{", "}", "[", "]",
    ",", ":", "=", "->", "block", "repeat", "next", "e", "e:", "ret", "jmp", "br", "h", "cx", "rz", "mz", "reset",
    "call", "output", "result", "q0", "q1", "r0", "r9", "%a", "%b", "phi", "read_result", "cmp", "eq", "zz", "add",
    "xor", "true", "false", "qubit", "int", "str", "0", "1", "-2", "+3", "٣", "2.5", ".5e1", "1e400", "\n", ";", "$",
    "%", "@", "-", ".",
)
HEADERS = ("", "module t\nattrs required_qubits=2 required_results=2\n",
           "module t\nattrs required_qubits=2 required_results=2\nfunc @main() {\nblock e:\n")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(HEADERS), st.lists(st.tuples(st.sampled_from(TOKEN_ALPHABET), st.sampled_from(" \n\t")), max_size=40))
def test_parse_matches_reference_on_token_alphabet_text(header, tokens):
    src = header + "".join(tok + sep for tok, sep in tokens)
    assert parse_outcome(parse, src) == parse_outcome(reference_parse, src)


def small_corpus() -> list[str]:
    from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus

    built = [build_msd(MsdConfig(1, "X")), build_rus(RusConfig(2, "Z", "loop")), build_rus(RusConfig(2, "Y", "recursion"))]
    sources = [emit(m) for m in built] + [emit(random_program(seed)) for seed in range(20)]
    sources.append(wrap("block entry:\n  jmp lp\nrepeat 2 lp { ; loop\nblock body:\n  rz(0.5) q0\n  jmp next\n}\n"
                        "block fin:\n  mz q0 -> r0\n  output result r0\n  ret"))
    return sources


SMALL_CORPUS = small_corpus()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SMALL_CORPUS), st.floats(0, 1, exclude_max=True), st.sampled_from(("delete", "replace", "insert")),
       st.sampled_from(TOKEN_ALPHABET))
def test_parse_matches_reference_after_a_one_token_edit(src, where, edit, token):
    spans = [m.span(1) for m in textir._LEX_RE.finditer(src) if m.group(1)]
    a, b = spans[int(where * len(spans))]
    edited = src[:a] + {"delete": "", "replace": token, "insert": token + " " + src[a:b]}[edit] + src[b:]
    assert parse_outcome(parse, edited) == parse_outcome(reference_parse, edited)
