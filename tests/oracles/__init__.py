"""Reference implementations the package's vectorized code is tested
against: :mod:`oracles.core` (the scalar seed→candidate chain and the
profile-by-profile light aligner),
:mod:`oracles.align` (scalar DP, minimizer, index and chaining loops) and
:mod:`oracles.genome` (the chromosome-clamped reference window, the
record-by-record FASTQ reader and the one-record SAM/PAF/JSONL lines)
and :mod:`oracles.serve` (the entry-by-entry decode of inline requests).
Importable from every test directory because ``tests/`` — the directory
of the root ``conftest.py`` — is on ``sys.path``."""
