"""Video-level differentially private training on clip-based classifiers."""

from .accountant import (
    AccountantState,
    CalibrationError,
    PrivacyBudget,
    calibrate_sigma,
    group_privacy,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    to_epsilon,
)
from .data import DatasetSpec, VideoSample, chunk_video, generate_dataset, load_dataset, sample_clips, save_dataset
from .dp import MultiClipEntry, NoiseConfig, clip_gradient, multi_clip_step, noisy_aggregate
from .finetune import Scheme, apply_scheme
from .models import (
    AdapterSpec,
    Model,
    ModelConfig,
    ParameterStore,
    build_model,
    insert_adapters,
    load_checkpoint,
    predict_video,
    save_checkpoint,
)
from .trainer import PretrainConfig, RunReport, TrainConfig, evaluate, pretrain, sweep_clips, train

__all__ = [
    "AccountantState",
    "AdapterSpec",
    "CalibrationError",
    "DatasetSpec",
    "Model",
    "ModelConfig",
    "MultiClipEntry",
    "NoiseConfig",
    "ParameterStore",
    "PretrainConfig",
    "PrivacyBudget",
    "RunReport",
    "Scheme",
    "TrainConfig",
    "VideoSample",
    "apply_scheme",
    "build_model",
    "calibrate_sigma",
    "chunk_video",
    "clip_gradient",
    "evaluate",
    "generate_dataset",
    "group_privacy",
    "insert_adapters",
    "load_checkpoint",
    "load_dataset",
    "multi_clip_step",
    "noisy_aggregate",
    "predict_video",
    "pretrain",
    "rdp_gaussian",
    "rdp_subsampled_gaussian",
    "sample_clips",
    "save_checkpoint",
    "save_dataset",
    "sweep_clips",
    "to_epsilon",
    "train",
]
