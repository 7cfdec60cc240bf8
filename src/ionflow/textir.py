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

Lexing is one ``findall`` over the token classes: the parser sees only token
texts and tells each one's class from its text. Only an error needs a
position, and ``tokenize``, the one function that counts lines and columns,
places it; it also reports a bad character ahead of any parse error.

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

# The token classes, tried in this order; "bad" is any other character but a blank.
_CLASSES = (
    ("float", r"[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d*\.\d+(?:[eE][+-]?\d+)?)"),
    ("int", r"[+-]?\d+"),
    ("vreg", r"%[A-Za-z_][A-Za-z0-9_.]*"),
    ("func", r"@[A-Za-z_][A-Za-z0-9_.]*"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_.]*"),
    ("punct", r"->|[(){}\[\],:=]"),
    ("bad", r"[^ \t\r]"),
)
# A token text's class is the first whose pattern matches all of it.
_KIND_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _CLASSES))
# The lexer: each match skips blanks, newlines and comments, then captures one
# token's text, or "" at the end of the source.
_LEX_RE = re.compile(r"[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*(" + "|".join(p for _k, p in _CLASSES) + r"|\Z)")


def _kind(text: str) -> str:
    """The class of a token text from ``_LEX_RE``; "" is the end of the source."""
    m = _KIND_RE.fullmatch(text)
    return m.lastgroup if m else "eof"


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, prev = 1, 0, 0  # line_start: offset of the current line's first character
    for m in _LEX_RE.finditer(src):
        text, start = m.group(1), m.start(1)
        if newlines := src.count("\n", prev, start):
            line += newlines
            line_start = src.rindex("\n", prev, start) + 1
        prev = start
        kind = _kind(text)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, start - line_start + 1)
        tokens.append(Token(kind, text, line, start - line_start + 1))
        if kind == "eof":  # a source that ends in blanks or a comment matches "" twice
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_QUBIT_RE = re.compile(r"^q(\d+)$")
_RESULT_RE = re.compile(r"^r(\d+)$")


class _Unplaced(Exception):
    """A parse error as (message, token index, expected), placed once the parser has unwound."""


class _Parser:
    def __init__(self, src: str):
        self.texts: list[str] = _LEX_RE.findall(src)  # ends with "", the end of the source
        if len(self.texts) > 1 and not self.texts[-2]:
            self.texts.pop()  # a source that ends in blanks or a comment matches "" twice
        self.kinds = {text: _kind(text) for text in set(self.texts)}
        if "bad" in self.kinds.values():
            tokenize(src)  # raises at the first bad character
        self.pos = 0
        self.repeat_counter = 0

    def peek(self) -> str:
        return self.texts[self.pos]

    def kind(self) -> str:
        return self.kinds[self.texts[self.pos]]

    def next(self) -> str:
        text = self.texts[self.pos]
        self.pos += 1
        return text

    def error(self, message: str, at: int | None = None, expected: tuple[str, ...] = ()) -> _Unplaced:
        return _Unplaced(message, self.pos if at is None else at, expected)

    def expect(self, kind: str, text: str | None = None) -> str:
        tok = self.texts[self.pos]
        if self.kinds[tok] != kind or (text is not None and tok != text):
            raise self.error(f"got {tok!r}", expected=(text if text is not None else kind,))
        self.pos += 1
        return tok

    # -- module level -------------------------------------------------------

    def parse_module(self) -> Module:
        self.expect("ident", "module")
        name = self.expect("ident")
        self.expect("ident", "attrs")
        attrs: dict[str, int] = {}
        for _ in range(2):
            key = self.expect("ident")
            self.expect("punct", "=")
            attrs[key] = int(self.expect("int"))
        if set(attrs) != {"required_qubits", "required_results"}:
            raise self.error(f"attrs must be required_qubits and required_results, got {sorted(attrs)}")
        if attrs["required_qubits"] < 0 or attrs["required_results"] < 0:
            raise self.error("attrs must be non-negative")
        functions: list[Function] = []
        while self.kind() != "eof":
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
        name = self.expect("func")[1:]
        self.expect("punct", "(")
        params: list[tuple[Vreg, str]] = []
        while self.peek() != ")":
            v = Vreg(self.expect("vreg")[1:])
            self.expect("punct", ":")
            ty = self.expect("ident")
            if ty not in ("int", "bool", "float", "qubit"):
                raise self.error(f"unknown parameter type '{ty}'")
            params.append((v, ty))
            if self.peek() == ",":
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
            if tok == "block":
                blocks.append(self.parse_block())
            elif tok == "repeat":
                blocks.extend(self.parse_repeat())
            else:
                return blocks

    def parse_repeat(self) -> list[BasicBlock]:
        """Desugar `repeat n label { blocks }` into a counted back-edge loop."""
        kw = self.pos
        self.expect("ident", "repeat")
        trips = int(self.expect("int"))
        if trips < 0:
            raise self.error("repeat count must be >= 0", kw)
        head_label = self.expect("ident")
        self.expect("punct", "{")
        body = self.parse_block_list()
        self.expect("punct", "}")
        if not body:
            raise self.error("repeat body has no blocks")
        # the block after the repeat is the loop exit
        if self.peek() != "block":
            raise self.error("repeat must be followed by a block", expected=("block",))
        exit_target = self.texts[self.pos + 1]

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
        label = self.expect("ident")
        self.expect("punct", ":")
        phis: list[Phi] = []
        body: list[Instruction] = []
        terminator: Terminator | None = None
        while terminator is None:
            at, kind = self.pos, self.kind()
            if kind == "eof":
                raise self.error(f"block '{label}' has no terminator", expected=("jmp", "br", "ret"))
            if kind == "vreg":
                dst, rhs = self.parse_assignment()
                if isinstance(rhs, Phi):
                    if body:
                        raise self.error("phi must appear before other instructions", at)
                    phis.append(rhs)
                else:
                    body.append(rhs)
            elif kind == "ident":
                item = self.parse_statement()
                if isinstance(item, (Jump, Branch, Return)):
                    terminator = item
                else:
                    body.append(item)
            else:
                raise self.error(f"got {self.peek()!r}", expected=("instruction",))
        return BasicBlock(label=label, phis=tuple(phis), body=tuple(body), terminator=terminator)

    # -- instructions --------------------------------------------------------

    def parse_assignment(self):
        dst = Vreg(self.expect("vreg")[1:])
        self.expect("punct", "=")
        op = self.expect("ident")
        if op == "phi":
            incomings: list[tuple[Value, str]] = []
            while True:
                self.expect("punct", "[")
                v = self.parse_value()
                self.expect("punct", ",")
                frm = self.expect("ident")
                self.expect("punct", "]")
                incomings.append((v, frm))
                if self.peek() == ",":
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
            cmp_op = self.expect("ident")
            if cmp_op not in CMPOPS:
                raise self.error(f"unknown comparison '{cmp_op}'", expected=CMPOPS)
            a = self.parse_value()
            self.expect("punct", ",")
            b = self.parse_value()
            return dst, Cmp(cmp_op, dst, a, b)
        raise self.error(f"unknown assignment op '{op}'", expected=("phi", "read_result", "cmp") + BINOPS)

    def parse_statement(self):
        at = self.pos
        word = self.next()
        if word == "jmp":
            return Jump(self.expect("ident"))
        if word == "br":
            cond = Vreg(self.expect("vreg")[1:])
            self.expect("punct", ",")
            then_t = self.expect("ident")
            self.expect("punct", ",")
            else_t = self.expect("ident")
            if then_t == else_t:
                raise self.error(f"DUPLICATE_TARGET: both branch arms go to '{then_t}'", at)
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
            kind = self.expect("ident")
            if kind == "result":
                return Output("result", self.parse_result_ref())
            return Output(kind)
        if word == "call":
            callee = self.expect("func")[1:]
            self.expect("punct", "(")
            args: list[Value] = []
            while self.peek() != ")":
                args.append(self.parse_call_arg())
                if self.peek() == ",":
                    self.next()
            self.expect("punct", ")")
            return Call(callee, tuple(args))
        if word in GATE_SET:
            angle: Value | None = None
            if self.peek() == "(":
                self.next()
                angle = self.parse_value()
                self.expect("punct", ")")
            qubits = [self.parse_qubit_ref()]
            while self.peek() == ",":
                self.next()
                qubits.append(self.parse_qubit_ref())
            if word in ROTATION_GATES and angle is None:
                raise self.error(f"{word} requires an angle", at)
            return QGate(word, tuple(qubits), angle)
        raise self.error(f"unknown instruction '{word}'", at)

    # -- operands -------------------------------------------------------------

    def parse_qubit_ref(self) -> QubitRef:
        if m := _QUBIT_RE.match(self.peek()):
            self.next()
            return int(m.group(1))
        if self.kind() == "vreg":
            return Vreg(self.next()[1:])
        raise self.error(f"got {self.peek()!r}", expected=("q<N>", "%vreg"))

    def parse_result_ref(self) -> int:
        tok = self.expect("ident")
        if not (m := _RESULT_RE.match(tok)):
            raise self.error(f"expected result ref r<N>, got {tok!r}", self.pos - 1)
        return int(m.group(1))

    def parse_value(self) -> Value:
        kind = self.kind()
        if kind == "vreg":
            return Vreg(self.next()[1:])
        if kind == "int":
            return int(self.next())
        if kind == "float":
            return float(self.next())
        if self.peek() in ("true", "false"):
            return self.next() == "true"
        raise self.error(f"got {self.peek()!r}", expected=("literal", "%vreg"))

    def parse_call_arg(self) -> Value:
        return self.parse_qubit_ref() if _QUBIT_RE.match(self.peek()) else self.parse_value()


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
    except _Unplaced as e:
        tok = tokenize(src)[e.args[1]]
        raise ParseError(e.args[0], tok.line, tok.col, e.args[2]) from None
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
