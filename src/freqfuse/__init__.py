"""Gaussian frequency decomposition, token fusion, and hallucination metrics."""

from .encoder import EncoderConfig, patch_tokens
from .fusion import (
    FusionGradients,
    FusionParams,
    FusionTrace,
    fit_demo,
    fuse_backward,
    fuse_sequence,
    fuse_token,
    gradient_check,
    init_params,
)
from .metrics import (
    CaptionRecord,
    ChairReport,
    PopeRecord,
    SynonymTable,
    chair,
    extract_objects,
    pope_f1,
)
from .spectral import (
    AttenuationSpec,
    ImageSpectrum,
    attenuation_matrix,
    decompose,
    decompose_attenuated,
    filter_branch,
    gaussian_masks,
    image_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AttenuationSpec",
    "CaptionRecord",
    "ChairReport",
    "EncoderConfig",
    "FusionGradients",
    "FusionParams",
    "FusionTrace",
    "ImageSpectrum",
    "PopeRecord",
    "SynonymTable",
    "attenuation_matrix",
    "chair",
    "decompose",
    "decompose_attenuated",
    "extract_objects",
    "filter_branch",
    "fit_demo",
    "fuse_backward",
    "fuse_sequence",
    "fuse_token",
    "gaussian_masks",
    "gradient_check",
    "image_spectrum",
    "init_params",
    "patch_tokens",
    "pope_f1",
]
