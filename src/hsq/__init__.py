"""Hyper-sphere gradient compression toolkit and federated SGD simulator."""

from .codebook import Codebook, CodebookMethod, generate, load_codebook, save_codebook
from .errors import (ConfigError, DimensionMismatch, EmptyInput, HsqError,
                     InvalidGradient, InvalidShape, Overflow,
                     RankDeficient, WireFormatError)
from .fedsim import (FedConfig, LrSchedule, QuantizerScheme, RoundLog, SimResult,
                     compression_ratio, curly_l, logs_to_csv, lr_theorem1, lr_theorem3,
                     payload_bits, run, theorem1_gap_bound, vq_bound)
from .problems import Logistic, Problem, Quadratic, TinyMLP, estimate_second_moment
from .quantizers import (CompressedGradient, Variant, aggregate, compress, decode,
                         decode_pseudo_norm, quantize_greedy, segment_gradient)
from .rng import Stream
from .wire import decode_frame, encode_frame, hsq_payload_bits

__version__ = "0.1.0"

__all__ = [
    "Codebook", "CodebookMethod", "CompressedGradient", "ConfigError",
    "DimensionMismatch", "EmptyInput", "FedConfig", "HsqError",
    "InvalidGradient", "InvalidShape", "Logistic", "LrSchedule", "Overflow",
    "Problem", "Quadratic", "QuantizerScheme", "RankDeficient",
    "RoundLog", "SimResult", "Stream", "TinyMLP",
    "Variant", "WireFormatError",
    "aggregate", "compress", "compression_ratio", "curly_l", "decode",
    "decode_frame", "decode_pseudo_norm", "encode_frame",
    "estimate_second_moment", "generate",
    "hsq_payload_bits", "load_codebook", "logs_to_csv", "lr_theorem1",
    "lr_theorem3", "payload_bits", "quantize_greedy", "run", "save_codebook",
    "segment_gradient", "theorem1_gap_bound", "vq_bound",
]
