"""Textual surface syntax for the IR: parser and canonical emitter.

The format mirrors the feature set of the in-memory IR one to one:

    module rus
    attrs required_qubits=3 required_results=3
    func @main() {
    block entry:
      h q0
      rz(2.214297435588181) q2
      mz q0 -> r0
      %m = read_result r0
      %c = add %m, 7
      %p = cmp eq %c, 1
      br %p, then0, cont0
    block then0:
      jmp cont0
    block cont0:
      %v = phi [%m, entry], [false, then0]
      output result r0
      ret
    }

``;`` starts a line comment. ``repeat <n> <label> { block ... }`` is loop
sugar: it desugars at parse time into a counted loop (phi counter, compare,
back-edge latch) entered by jumping to ``<label>``; inside the body the
reserved target ``next`` jumps to the latch, and after the last trip control
falls through to the block that follows the repeat. The back edge this
introduces is removed later by the flattening pass, never by the parser.

Emission is canonical (fixed indentation, shortest round-tripping float
literals, no comments), so ``parse(emit(m)) == m`` for any valid module.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ir import (
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cmp,
    Function,
    Instruction,
    IonflowError,
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
    Select,
    Terminator,
    Value,
    Vreg,
    BINOPS,
    CMPOPS,
    GATE_SET,
    ROTATION_GATES,
    retarget,
    targets,
)

NEXT_LABEL = "next"  # reserved jump target inside repeat bodies
OUTSIDE = "<outside>"  # a repeat counter's start edges, until its function is parsed


class ParseError(IonflowError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        exp = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{exp}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Each match is optional blanks, then one token, comment or newline; any
# other character but a blank is "bad", so only blanks at the end of the
# source go unmatched.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<comment>;[^\n]*)
      | (?P<newline>\n)
      | (?P<float>[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d*\.\d+(?:[eE][+-]?\d+)?))
      | (?P<int>[+-]?\d+)
      | (?P<vreg>%[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<func>@[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<punct>->|[(){}\[\],:=])
      | (?P<bad>[^ \t\r])
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", line, m.start(kind) - line_start + 1)
        elif kind != "comment":
            tokens.append(Token(kind, m.group(kind), line, m.start(kind) - line_start + 1))
    tokens.append(Token("eof", "", line, len(src) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_QUBIT_RE = re.compile(r"^q(\d+)$")
_RESULT_RE = re.compile(r"^r(\d+)$")


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0
        self.repeat_counter = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected: tuple[str, ...] = ()) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col, expected)

    def expect(self, kind: str, text: str | None = None) -> Token:
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
        return Function(name=name, params=tuple(params), blocks=_start_counters(blocks))

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
        rewritten = [retarget(b, NEXT_LABEL, latch_label) for b in body]
        head = BasicBlock(
            label=head_label,
            phis=(Phi(ctr, ((0, OUTSIDE), (ctr_next, latch_label))),),
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
            m = _QUBIT_RE.match(tok.text)
            if m:
                self.next()
                return int(m.group(1))
        if tok.kind == "vreg":
            v = Vreg(self.next().text[1:])
            return v
        raise self.error(f"got {tok.text!r}", tok, expected=("q<N>", "%vreg"))

    def parse_result_ref(self) -> int:
        tok = self.expect("ident")
        m = _RESULT_RE.match(tok.text)
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
            m = _QUBIT_RE.match(tok.text)
            if m:
                self.next()
                return int(m.group(1))
        return self.parse_value()


def _start_counters(blocks: list[BasicBlock]) -> tuple[BasicBlock, ...]:
    """Give each repeat header's counter phi its start value on every edge from outside its loop."""
    preds: dict[str, list[str]] = {}
    for b in blocks:
        for target in targets(b.terminator):
            preds.setdefault(target, []).append(b.label)
    for i, b in enumerate(blocks):
        if b.phis and b.phis[0].incomings[0][1] == OUTSIDE:
            (start, _), back = b.phis[0].incomings
            starts = tuple((start, p) for p in preds.get(b.label, ()) if p != back[1])
            blocks[i] = BasicBlock(b.label, (Phi(b.phis[0].dst, (back, *starts)),), b.body, b.terminator)
    return tuple(blocks)


def parse(src: str) -> Module:
    """Parse source text into a Module; raises ParseError on malformed input."""
    try:
        return _Parser(src).parse_module()
    except RecursionError:
        raise ParseError("input nests too deeply", 0, 0)
    except ParseError:
        raise
    except ValueError as e:  # int() of a literal past Python's limit on digits
        raise ParseError(str(e), 0, 0) from None


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------

def _fmt_value(v: Value) -> str:
    if isinstance(v, Vreg):
        return f"%{v.name}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_qubit(q: QubitRef) -> str:
    return f"%{q.name}" if isinstance(q, Vreg) else f"q{q}"


def _fmt_instr(instr: Instruction, module: Module | None = None) -> str:
    if isinstance(instr, QGate):
        angle = f"({_fmt_value(instr.angle)})" if instr.angle is not None else ""
        return f"{instr.name}{angle} " + ", ".join(_fmt_qubit(q) for q in instr.qubits)
    if isinstance(instr, Measure):
        return f"mz {_fmt_qubit(instr.qubit)} -> r{instr.slot}"
    if isinstance(instr, Reset):
        return f"reset {_fmt_qubit(instr.qubit)}"
    if isinstance(instr, ReadResult):
        return f"{_fmt_value(instr.dst)} = read_result r{instr.slot}"
    if isinstance(instr, BinOp):
        return f"{_fmt_value(instr.dst)} = {instr.op} {_fmt_value(instr.a)}, {_fmt_value(instr.b)}"
    if isinstance(instr, Cmp):
        return f"{_fmt_value(instr.dst)} = cmp {instr.op} {_fmt_value(instr.a)}, {_fmt_value(instr.b)}"
    if isinstance(instr, Select):
        return f"{_fmt_value(instr.dst)} = select {_fmt_value(instr.cond)}, {_fmt_value(instr.a)}, {_fmt_value(instr.b)}"
    if isinstance(instr, Output):
        if instr.kind == "result":
            return f"output result r{instr.slot}"
        return f"output {instr.kind}"
    if isinstance(instr, Call):
        # literal qubit args print as q<N>; the callee signature disambiguates
        types: list[str] = []
        if module is not None:
            try:
                types = [ty for _v, ty in module.function(instr.callee).params]
            except KeyError:
                types = []
        parts = []
        for i, a in enumerate(instr.args):
            is_qubit = i < len(types) and types[i] == "qubit"
            if is_qubit and isinstance(a, int) and not isinstance(a, bool):
                parts.append(f"q{a}")
            else:
                parts.append(_fmt_value(a))
        return f"call @{instr.callee}({', '.join(parts)})"
    raise TypeError(f"cannot emit {instr!r}")


def emit(module: Module) -> str:
    """Render a module in canonical text. parse(emit(m)) == m structurally."""
    lines = [f"module {module.name}"]
    lines.append(f"attrs required_qubits={module.required_qubits} required_results={module.required_results}")
    ordered = [module.entry_function] + [f for f in module.functions if f.name != module.entry]
    for fn in ordered:
        params = ", ".join(f"%{v.name}: {ty}" for v, ty in fn.params)
        lines.append(f"func @{fn.name}({params}) {{")
        for b in fn.blocks:
            lines.append(f"block {b.label}:")
            for phi in b.phis:
                inc = ", ".join(f"[{_fmt_value(v)}, {l}]" for v, l in phi.incomings)
                lines.append(f"  %{phi.dst.name} = phi {inc}")
            for instr in b.body:
                lines.append(f"  {_fmt_instr(instr, module)}")
            t = b.terminator
            if isinstance(t, Jump):
                lines.append(f"  jmp {t.target}")
            elif isinstance(t, Branch):
                lines.append(f"  br %{t.cond.name}, {t.then_target}, {t.else_target}")
            else:
                lines.append("  ret")
        lines.append("}")
    return "\n".join(lines) + "\n"
