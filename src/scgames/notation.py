"""Parser for the braces/bar game notation.

Grammar (whitespace insignificant)::

    game := atom | "{" list "|" list "}"
    list := game ("," game)*
    atom := "top" | "bot" | "⊤" | "⊥" | identifier | "(" ... ")"

The parenthesized form covers product-poset atom names like "(a,b)", which
contain commas; the whole balanced group is one atom token.  This makes
parse_game a left inverse of games.to_notation on every poset we build.
"""

from __future__ import annotations

from .games import Game, UnknownAtom, atomic, composite
from .poset import AtomPoset


class GameSyntaxError(ValueError):
    """Notation error, annotated with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PUNCT = frozenset("{}|,")

# Brace nesting the parser accepts.  Printing and simplify walk on
# games.fold's own stack; parsing and is_passable/is_monotone take one
# Python frame a level, the order (leq/tri) two.  100 stays because the
# order alone would exhaust Python's recursion limit on much deeper input.
MAX_NESTING = 100


def _tokenize(text: str):
    """Yield (kind, value, pos); kind is 'punct' or 'atom'."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            yield ("punct", c, i)
            i += 1
            continue
        if c == "(":
            depth, j = 0, i
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise GameSyntaxError("unbalanced parenthesis", i)
            yield ("atom", text[i:j + 1], i)
            i = j + 1
            continue
        if c in "⊤⊥" or c.isalpha() or c == "_":
            j = i + 1
            if c not in "⊤⊥":
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            yield ("atom", text[i:j], i)
            i = j
            continue
        raise GameSyntaxError(f"unexpected character {c!r}", i)


class _Parser:
    def __init__(self, text: str, poset: AtomPoset):
        self.text = text
        self.poset = poset
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.nesting = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.take()
        if kind != "punct" or val != value:
            raise GameSyntaxError(f"expected {value!r}", at)

    def game(self) -> Game:
        # both option lists are read here, so a level of nesting costs one
        # Python frame
        kind, val, at = self.take()
        if kind == "atom":
            return self.atom(val, at)
        if kind != "punct" or val != "{":
            raise GameSyntaxError("expected a game", at)
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise GameSyntaxError(
                f"nesting too deep (more than {MAX_NESTING} levels)", at)
        sides = []
        for stop in "|}":
            kind, val, at = self.peek()
            if kind == "punct" and val == stop:
                raise GameSyntaxError("empty option list", at)
            options = [self.game()]
            while self.peek()[:2] == ("punct", ","):
                self.take()
                options.append(self.game())
            self.expect(stop)
            sides.append(options)
        self.nesting -= 1
        return composite(sides[0], sides[1], self.poset)

    def atom(self, name: str, at: int) -> Game:
        p = self.poset
        if name in ("top", "⊤"):
            name = p.top
        elif name in ("bot", "⊥"):
            name = p.bot
        if name not in p:
            raise UnknownAtom(f"atom {name!r} not in poset "
                              f"(position {at})")
        return atomic(name, p)


def parse_game(text: str, poset: AtomPoset) -> Game:
    """Parse the braces/bar notation into an interned game."""
    parser = _Parser(text, poset)
    g = parser.game()
    kind, _, at = parser.peek()
    if kind != "eof":
        raise GameSyntaxError("trailing input after game", at)
    return g
