"""A textual assembler for the IR.

The examples and several tests author programs in assembly rather than
through the builder API.  Grammar (``#`` starts a line comment)::

    program  := header? func*
    header   := "program" ("entry" "=" IDENT)? ("globals" "=" INT)?
                ("table" "=" "[" (IDENT ("," IDENT)*)? "]")?
    func     := "func" IDENT "(" INT ")" ("regs" "=" INT)? "{" block+ "}"
    block    := IDENT ":" instr*
    instr    := mnemonic operands

Operands: ``rN`` registers, integer/float literals (immediates),
``[rN+off]`` memory addresses, bare identifiers (block or function
names).  Calls look like ``call r3, foo(r1, 2)`` / ``call foo(r1)`` and
indirect calls ``icall r3, *r5(r1, 2)``, which call through the
header's ``table=[f, g]`` (``Program.function_table``, index order).
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional, Union

from repro.ir.function import Block, Function, Program, validate_program
from repro.ir.instructions import (
    BINARY_OPS,
    FLOAT_OPS,
    Alloc,
    Binop,
    Br,
    Call,
    Cbr,
    Const,
    FBinop,
    ICall,
    Imm,
    Load,
    Longjmp,
    Move,
    Operand,
    Ret,
    Setjmp,
    Store,
)


class AsmError(Exception):
    """Raised on any lexical or syntactic error, with a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str
    text: str
    line: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<float>-?\d+\.\d+(?:[eE][-+]?\d+)?)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>[(){}\[\]:,=*+])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[Token]:
    line = 1
    pos = 0
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise AsmError(f"unexpected character {text[pos]!r}", line)
        pos = match.end()
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            yield Token("newline", "\n", line - 1)
        elif kind not in ("ws", "comment"):
            yield Token(kind, match.group(), line)
    yield Token("eof", "", line)


class _Parser:
    def __init__(self, text: str):
        self.tokens: List[Token] = list(_tokenize(text))
        self.pos = 0

    # -- token primitives ----------------------------------------------------

    def peek(self, skip_newlines: bool = True) -> Token:
        pos = self.pos
        while skip_newlines and self.tokens[pos].kind == "newline":
            pos += 1
        return self.tokens[pos]

    def next(self, skip_newlines: bool = True) -> Token:
        while skip_newlines and self.tokens[self.pos].kind == "newline":
            self.pos += 1
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise AsmError(f"expected {want!r}, found {token.text!r}", token.line)
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    # -- operand parsing -------------------------------------------------------

    def parse_reg(self) -> int:
        token = self.expect("ident")
        if not re.fullmatch(r"r\d+", token.text):
            raise AsmError(f"expected register, found {token.text!r}", token.line)
        return int(token.text[1:])

    def parse_operand(self) -> Operand:
        token = self.peek()
        if token.kind == "int":
            self.next()
            return Imm(int(token.text))
        if token.kind == "float":
            self.next()
            return Imm(float(token.text))
        return self.parse_reg()

    def parse_mem(self) -> tuple:
        """``[rN]`` or ``[rN+off]`` or ``[rN+-off]`` -> (base, offset)."""
        self.expect("punct", "[")
        base = self.parse_reg()
        offset = 0
        if self.accept("punct", "+"):
            token = self.next()
            if token.kind != "int":
                raise AsmError(f"expected integer offset, found {token.text!r}", token.line)
            offset = int(token.text)
        self.expect("punct", "]")
        return base, offset

    def parse_args(self) -> List[Operand]:
        self.expect("punct", "(")
        args: List[Operand] = []
        if not self.accept("punct", ")"):
            while True:
                args.append(self.parse_operand())
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        return args

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> Program:
        entry = "main"
        globals_size = 0
        table: List[str] = []
        if self.peek().kind == "ident" and self.peek().text == "program":
            self.next()
            while True:
                token = self.peek()
                if token.kind == "ident" and token.text == "entry":
                    self.next()
                    self.expect("punct", "=")
                    entry = self.expect("ident").text
                elif token.kind == "ident" and token.text == "globals":
                    self.next()
                    self.expect("punct", "=")
                    globals_size = int(self.expect("int").text)
                elif token.kind == "ident" and token.text == "table":
                    self.next()
                    self.expect("punct", "=")
                    self.expect("punct", "[")
                    while not self.accept("punct", "]"):
                        if table:
                            self.expect("punct", ",")
                        table.append(self.expect("ident").text)
                else:
                    break
        program = Program(entry=entry, globals_size=globals_size)
        program.function_table = table
        while self.peek().kind != "eof":
            program.add_function(self.parse_function(program))
        program.assign_all_call_sites()
        return program

    def parse_function(self, program: Program) -> Function:
        self.expect("ident", "func")
        name = self.expect("ident").text
        self.expect("punct", "(")
        num_params = int(self.expect("int").text)
        self.expect("punct", ")")
        num_regs = 32
        if self.accept("ident", "regs"):
            self.expect("punct", "=")
            num_regs = int(self.expect("int").text)
        self.expect("punct", "{")
        function = Function(name, num_params=num_params, num_regs=num_regs)
        while not self.accept("punct", "}"):
            function.add_block(self.parse_block(program))
        return function

    def parse_block(self, program: Program) -> Block:
        label = self.expect("ident")
        self.expect("punct", ":")
        block = Block(label.text)
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == "punct" and token.text == "}":
                break
            # A label is an ident followed by ':'
            if token.kind == "ident":
                after = self._token_after(token)
                if after is not None and after.kind == "punct" and after.text == ":":
                    break
            block.instrs.append(self.parse_instruction(program))
        return block

    def _token_after(self, token: Token) -> Optional[Token]:
        pos = self.pos
        while self.tokens[pos].kind == "newline":
            pos += 1
        assert self.tokens[pos] is token or self.tokens[pos] == token
        pos += 1
        while self.tokens[pos].kind == "newline":
            pos += 1
        if self.tokens[pos].kind == "eof":
            return None
        return self.tokens[pos]

    def parse_instruction(self, program: Program):
        token = self.expect("ident")
        mnemonic = token.text
        if mnemonic == "const":
            dst = self.parse_reg()
            self.expect("punct", ",")
            value_token = self.next()
            if value_token.kind == "int":
                return Const(dst, int(value_token.text))
            if value_token.kind == "float":
                return Const(dst, float(value_token.text))
            raise AsmError(f"expected literal, found {value_token.text!r}", value_token.line)
        if mnemonic == "mov":
            dst = self.parse_reg()
            self.expect("punct", ",")
            src = self.parse_reg()
            return Move(dst, src)
        if mnemonic in BINARY_OPS:
            dst = self.parse_reg()
            self.expect("punct", ",")
            a = self.parse_reg()
            self.expect("punct", ",")
            b = self.parse_operand()
            return Binop(mnemonic, dst, a, b)
        if mnemonic in FLOAT_OPS:
            dst = self.parse_reg()
            self.expect("punct", ",")
            a = self.parse_reg()
            self.expect("punct", ",")
            b = self.parse_operand()
            return FBinop(mnemonic, dst, a, b)
        if mnemonic == "load":
            dst = self.parse_reg()
            self.expect("punct", ",")
            base, offset = self.parse_mem()
            return Load(dst, base, offset)
        if mnemonic == "store":
            src = self.parse_operand()
            self.expect("punct", ",")
            base, offset = self.parse_mem()
            return Store(src, base, offset)
        if mnemonic == "alloc":
            dst = self.parse_reg()
            self.expect("punct", ",")
            size = self.parse_operand()
            return Alloc(dst, size)
        if mnemonic == "br":
            return Br(self.expect("ident").text)
        if mnemonic == "cbr":
            cond = self.parse_reg()
            self.expect("punct", ",")
            then = self.expect("ident").text
            self.expect("punct", ",")
            els = self.expect("ident").text
            return Cbr(cond, then, els)
        if mnemonic == "call":
            return self._parse_call(direct=True)
        if mnemonic == "icall":
            return self._parse_call(direct=False)
        if mnemonic == "ret":
            nxt = self.peek(skip_newlines=False)
            if nxt.kind in ("int", "float"):
                self.next()
                value: Union[Operand, None] = Imm(
                    int(nxt.text) if nxt.kind == "int" else float(nxt.text)
                )
            elif nxt.kind == "ident" and re.fullmatch(r"r\d+", nxt.text):
                self.next()
                value = int(nxt.text[1:])
            else:
                value = None
            return Ret(value)
        if mnemonic == "setjmp":
            dst = self.parse_reg()
            self.expect("punct", ",")
            env = self.parse_reg()
            return Setjmp(dst, env)
        if mnemonic == "longjmp":
            env = self.parse_reg()
            self.expect("punct", ",")
            value = self.parse_operand()
            return Longjmp(env, value)
        raise AsmError(f"unknown mnemonic {mnemonic!r}", token.line)

    def _parse_call(self, direct: bool):
        # Forms: call foo(...)            -- no result
        #        call r3, foo(...)        -- result into r3
        #        icall *r5(...) / icall r3, *r5(...)
        dst: Optional[int] = None
        token = self.peek()
        if direct:
            name_token = self.expect("ident")
            if self.peek().kind == "punct" and self.peek().text == ",":
                # it was actually the dst register
                if not re.fullmatch(r"r\d+", name_token.text):
                    raise AsmError(
                        f"expected register or function, found {name_token.text!r}",
                        name_token.line,
                    )
                dst = int(name_token.text[1:])
                self.expect("punct", ",")
                name_token = self.expect("ident")
            args = self.parse_args()
            return Call(name_token.text, args, dst)
        # indirect
        if token.kind == "ident" and re.fullmatch(r"r\d+", token.text):
            # Could be dst or the function register; disambiguate on '*'
            first = self.next()
            if self.accept("punct", ","):
                dst = int(first.text[1:])
                self.expect("punct", "*")
                func = self.parse_reg()
            else:
                raise AsmError("indirect call target must be written *rN", first.line)
        else:
            self.expect("punct", "*")
            func = self.parse_reg()
        args = self.parse_args()
        return ICall(func, args, dst)


def parse_program(text: str, validate: bool = True) -> Program:
    """Parse assembly text into a :class:`Program`."""
    program = _Parser(text).parse_program()
    if validate:
        validate_program(program)
    return program
