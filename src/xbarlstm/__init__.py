"""Behavioral simulator and cost estimator for LSTM inference on
non-volatile-memory crossbar arrays: uniform quantization with
straight-through training, DAC/ADC and device noise injection, and an
analytical throughput/power/area model."""

__version__ = "0.1.0"

from .quantizer import ActivationLUT, QuantSpec, build_lut, quantize, ste_backward
from .lstm import (
    GateActivations,
    LSTMParams,
    LSTMState,
    OpCounter,
    forward_sequence,
    lstm_backward,
    lstm_step_ref,
)
from .crossbar import (
    CrossbarConfig,
    NoiseConfig,
    ProgrammedArray,
    load_array,
    program,
    quantized_lstm_step,
    read_back,
    save_array,
    vmm,
)
from .network import LSTMNetwork
from .datasets import (
    SequenceDataset,
    bundled_corpus_path,
    load_char_corpus,
    load_word_corpus,
    split_dataset,
    synth_har,
)
from .training import EvalReport, TrainConfig, TrainingDiverged, evaluate, train
from .tasks import build_network, build_task
from .hwcost import (
    CostReport,
    HwParams,
    InfeasibleHardware,
    adc_energy_per_sample,
    area,
    cost_report,
    efficiencies,
    enob,
    johnson_noise,
    power,
    quantization_noise_v,
    render_comparison_tables,
    shot_noise,
    throughput,
)
from .experiment import ExperimentConfig, load_config, run

__all__ = [
    "__version__",
    "ActivationLUT", "QuantSpec", "build_lut", "quantize", "ste_backward",
    "GateActivations", "LSTMParams", "LSTMState", "OpCounter",
    "forward_sequence", "lstm_backward", "lstm_step_ref",
    "CrossbarConfig", "NoiseConfig", "ProgrammedArray", "load_array", "program",
    "quantized_lstm_step", "read_back", "save_array", "vmm",
    "LSTMNetwork",
    "SequenceDataset", "bundled_corpus_path", "load_char_corpus",
    "load_word_corpus", "split_dataset", "synth_har",
    "EvalReport", "TrainConfig", "TrainingDiverged", "evaluate", "train",
    "build_network", "build_task",
    "CostReport", "HwParams", "InfeasibleHardware", "adc_energy_per_sample",
    "area", "cost_report", "efficiencies", "enob", "johnson_noise", "power",
    "quantization_noise_v", "render_comparison_tables", "shot_noise", "throughput",
    "ExperimentConfig", "load_config", "run",
]
