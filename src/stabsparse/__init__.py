"""Sparse stabilizer decompositions of tensored magic states.

Subpackages cover exact stabilizer algebra (``stabilizer``), uniformly
random stabilizer states and their product-term overlaps (``quadform``), XOR-mask
code generation (``masks``), magic-state modelling and sparsification
(``magic``), norm/probability estimation (``estimator``), sampling-cost
models (``costmodel``) and the benchmark harness (``bench``).
"""

__version__ = "0.1.0"
