"""Compressive wideband spectrum sensing laboratory.

A cognitive-radio receiver that samples below the Nyquist rate, recovers the
sparse wideband spectrum greedily, validates the estimate on held-out
measurements, and halts acquisition the moment the recovery is provably good,
freeing the rest of the frame for transmission.  The package splits into:

``signals``
    Sparse wideband signal models and DFT helpers.
``sensing``
    Random measurement matrices and acquisition into training/testing rows.
``validation``
    The validation parameter, its error interval, halting rules and sizing.
``recovery``
    Orthogonal pursuit and its validation-halted sparsity-blind variant.
``engine``
    The sequential sensing frame loop and band-occupancy decisions.
``experiments``
    Seeded Monte Carlo sweeps with CSV/JSON result tables, plus the CLI in
    ``widesense.cli``.

Names are imported from their modules; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
