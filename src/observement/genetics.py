"""DNA strings, codon tables, and translation to amino-acid strings.

The default table is the standard genetic code, stored in the same
line-oriented format the loader accepts (64 lines of ``codon<TAB>letter`` with
``STOP`` for terminators).  Bases are canonically lowercase; uppercase input
is folded.  Reading frames, introns, and RNA intermediates are deliberately
not modeled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ._shared import significant_lines
from .errors import ObservementError

DNA_BASES = "acgt"
STOP = "*"
AMINO_ACIDS = frozenset("ACDEFGHIKLMNPQRSTVWY")

_STANDARD_TABLE_TEXT = """\
ttt	F
ttc	F
tta	L
ttg	L
ctt	L
ctc	L
cta	L
ctg	L
att	I
atc	I
ata	I
atg	M
gtt	V
gtc	V
gta	V
gtg	V
tct	S
tcc	S
tca	S
tcg	S
cct	P
ccc	P
cca	P
ccg	P
act	T
acc	T
aca	T
acg	T
gct	A
gcc	A
gca	A
gcg	A
tat	Y
tac	Y
taa	STOP
tag	STOP
cat	H
cac	H
caa	Q
cag	Q
aat	N
aac	N
aaa	K
aag	K
gat	D
gac	D
gaa	E
gag	E
tgt	C
tgc	C
tga	STOP
tgg	W
cgt	R
cgc	R
cga	R
cgg	R
agt	S
agc	S
aga	R
agg	R
ggt	G
ggc	G
gga	G
ggg	G
"""


class GeneticsError(ObservementError):
    """Invalid bases, malformed genes, or a bad codon table."""


ALL_CODONS = tuple(a + b + c for a in DNA_BASES for b in DNA_BASES for c in DNA_BASES)
START_CODON = "atg"


@dataclass(frozen=True)
class CodonTable:
    """Total map from the 64 codons to an amino-acid letter or STOP."""

    codons: dict

    def __post_init__(self):
        object.__setattr__(self, "codons", dict(self.codons))
        missing = sorted(set(ALL_CODONS) - set(self.codons))
        if missing:
            raise GeneticsError(f"codon table is missing {len(missing)} codons, e.g. {missing[0]}")
        extra = sorted(set(self.codons) - set(ALL_CODONS))
        if extra:
            raise GeneticsError(f"codon table has invalid codons: {extra[:3]}")
        bad = sorted(v for v in self.codons.values() if v != STOP and v not in AMINO_ACIDS)
        if bad:
            raise GeneticsError(f"codon table maps to unknown letters: {bad[:3]}")
        stops = sum(1 for v in self.codons.values() if v == STOP)
        if stops != 3:
            raise GeneticsError(f"codon table must have exactly 3 stop codons, found {stops}")
        if self.codons.get(START_CODON) != "M":
            raise GeneticsError(
                f"start codon {START_CODON!r} must code for Methionine (M)"
            )

    @classmethod
    def from_text(cls, text: str) -> "CodonTable":
        codons = {}
        for lineno, line in significant_lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise GeneticsError(f"line {lineno}: expected 'codon letter', got {line!r}")
            codon, letter = parts[0].lower(), parts[1]
            if codon in codons:
                raise GeneticsError(f"line {lineno}: duplicate codon {codon!r}")
            codons[codon] = STOP if letter.upper() == "STOP" else letter.upper()
        return cls(codons)

    def to_text(self) -> str:
        lines = []
        for codon in ALL_CODONS:
            letter = self.codons[codon]
            lines.append(f"{codon}\t{'STOP' if letter == STOP else letter}")
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=1)
def standard_table() -> CodonTable:
    return CodonTable.from_text(_STANDARD_TABLE_TEXT)


def clean_dna(s: str) -> str:
    """Fold to lowercase and reject anything outside the four bases."""
    folded = s.lower()
    for i, ch in enumerate(folded):
        if ch not in DNA_BASES:
            raise GeneticsError(f"invalid base {s[i]!r} at position {i}")
    return folded


def codon_lookup(table: CodonTable, codon: str) -> str:
    """The amino-acid letter for a codon, or STOP."""
    codon = clean_dna(codon)
    if len(codon) != 3:
        raise GeneticsError(f"codon must be exactly 3 bases, got {len(codon)}")
    return table.codons[codon]


def translate_frame(dna: str, table: CodonTable | None = None) -> list:
    """Raw frame translation: one letter (or STOP) per codon, no gene checks."""
    table = table or standard_table()
    dna = clean_dna(dna)
    if len(dna) % 3:
        raise GeneticsError(f"length {len(dna)} is not divisible by 3")
    return [table.codons[dna[i:i + 3]] for i in range(0, len(dna), 3)]


def translate_gene(dna: str, table: CodonTable | None = None) -> str:
    """Translate a well-formed gene to its protein string.

    The gene must start with the start codon (translated, as Methionine) and
    carry exactly one stop codon, at the end (dropped).  The protein is
    therefore one residue shorter than the codon count.
    """
    letters = translate_frame(dna, table)
    if len(letters) < 2:
        raise GeneticsError("a gene needs at least a start codon and a stop codon")
    start = dna[:3].lower()
    if start != START_CODON:
        raise GeneticsError(
            f"missing start codon: gene begins with {start!r}, expected {START_CODON!r}"
        )
    for index, letter in enumerate(letters[:-1]):
        if letter == STOP:
            raise GeneticsError(f"internal stop codon at codon {index}")
    if letters[-1] != STOP:
        raise GeneticsError("missing terminal stop codon")
    return "".join(letters[:-1])


def relabel_bases(s: str, sigma: dict) -> str:
    """Apply a bijection on a four-symbol base alphabet pointwise.

    This is the translation witness between base-alphabet variants: applying
    sigma and then its inverse restores the original string.
    """
    if len(sigma) != 4:
        raise GeneticsError(f"base relabeling must cover a 4-symbol alphabet, got {len(sigma)}")
    if len(set(sigma.values())) != len(sigma):
        raise GeneticsError("base relabeling must be a bijection")
    out = []
    for i, ch in enumerate(s):
        if ch not in sigma:
            raise GeneticsError(f"symbol {ch!r} at position {i} is outside the relabeling domain")
        out.append(sigma[ch])
    return "".join(out)


def read_sequence_records(text: str) -> list:
    """Parse a FASTA-compatible subset: '>' header lines, then sequence lines.

    Text without any header is treated as a single unnamed record ("-").
    Whitespace inside sequence lines is discarded.  Returns (name, sequence)
    pairs in file order.
    """
    records: list[tuple[str, str]] = []
    name = None
    chunks: list[str] = []

    def flush():
        if name is not None or chunks:
            records.append((name if name is not None else "-", "".join(chunks)))

    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith(">"):
            flush()
            name = line[1:].strip() or "-"
            chunks = []
        elif line:
            chunks.append("".join(line.split()))
    flush()
    return records
