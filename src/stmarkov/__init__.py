"""Spacetime Markov length toolkit for noisy syndrome-extraction circuits.

Builds detector error models of phenomenological CSS syndrome extraction,
verifies the measurement-based resource-state correspondence with a
stabilizer tableau, samples detector outcomes at scale, and estimates the
decay length of conditional mutual information across spacetime
tripartitions, cross-validated by a union-find decoder threshold.
"""

__version__ = "0.1.0"

from .codes import CssCode, repetition_code, toric_code, validate_code
from .spacetime import (
    DetectorModel,
    Mechanism,
    NoiseModel,
    Tripartition,
    build_detector_model,
    detector_flip_probability,
    detectors_from_errors,
)
from .foliation import ResourceState, detector_cells, foliate, lbl_stabilizers
from .tableau import Tableau, evaluate_detectors, init_graph_state, measure_x_all
from .sampler import SampleBatch, sample_batch
from .entropy import entropy_decomposition_check, exact_entropy, rank_entropy_half
from .markov import (
    CmiPoint,
    MarkovFit,
    build_tripartition,
    cmi,
    markov_length,
    sweep_cells,
)
from .decoder import DecodeResult, decode, logical_error_rate, threshold_estimate
