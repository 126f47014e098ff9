"""Words in a finitely generated group.

A word is a sequence of letters ``(generator_index, sign)`` with sign +1 or
-1.  Letters are stored freely reduced: adjacent pairs ``g g^-1`` cancel.
Cancellation of ``g g`` for involutions is not the word's business, that
depends on a presentation; see :meth:`Presentation.reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Letter = tuple[int, int]


def reduce_letters(letters: Iterable[Letter],
                   involutions: frozenset[int] = frozenset()) -> tuple[Letter, ...]:
    """Cancel adjacent inverse letters in one stack pass: each letter meets
    a prefix that is already reduced.

    A generator in involutions has its sign flattened to +1 first, so g g
    cancels too; with no involutions this is plain free reduction.  The
    letters are not checked: they must come from words, or have passed
    Word's checks.
    """
    out: list[Letter] = []
    for gen, sign in letters:
        if gen in involutions:
            sign = 1
        if out and out[-1][0] == gen and (gen in involutions or out[-1][1] == -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word, letters are (generator index, +1 or -1).

    Word(letters) checks every letter (an int generator index >= 0 and an
    int sign +1 or -1) and reduces them.  Code that already holds valid,
    freely reduced letters builds with Word._unchecked.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        for gen, sign in letters:
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"letter sign must be the int +1 or -1, got {sign!r}")
            if type(gen) is not int or gen < 0:
                raise ValueError(f"generator index must be an int >= 0, got {gen!r}")
        object.__setattr__(self, "letters", reduce_letters(letters))

    @classmethod
    def _unchecked(cls, letters: tuple[Letter, ...]) -> "Word":
        """A word on letters that are valid and freely reduced already."""
        word = object.__new__(cls)
        word.__dict__["letters"] = letters  # frozen: filled directly, not set
        return word

    @staticmethod
    def gen(index: int, sign: int = 1) -> "Word":
        return Word(((index, sign),))

    @staticmethod
    def empty() -> "Word":
        return Word._unchecked(())

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return Word._unchecked(reduce_letters(self.letters + other.letters))

    def __invert__(self) -> "Word":
        return Word._unchecked(tuple((g, -s) for g, s in reversed(self.letters)))

    def render(self, names: tuple[str, ...] | list[str]) -> str:
        """Print with exponent folding: ``SRS``, ``a^-1b^2``.  Empty word is ''."""
        parts: list[str] = []
        i = 0
        letters = self.letters
        while i < len(letters):
            gen, sign = letters[i]
            j = i
            while j < len(letters) and letters[j] == (gen, sign):
                j += 1
            exp = sign * (j - i)
            parts.append(names[gen] if exp == 1 else f"{names[gen]}^{exp}")
            i = j
        return "".join(parts)

