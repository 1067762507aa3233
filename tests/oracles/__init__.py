"""Reference implementations the package's vectorized code is tested
against: :mod:`oracles.core` (the scalar seed→candidate chain and the
profile-by-profile light aligner),
:mod:`oracles.align` (scalar DP, minimizer, index and chaining loops) and
:mod:`oracles.genome` (the chromosome-clamped reference window).
Importable from every test directory because ``tests/`` — the directory
of the root ``conftest.py`` — is on ``sys.path``."""
