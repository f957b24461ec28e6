"""Masked video autoencoding with tube masking, at desk scale."""

import os

# one BLAS thread unless the environment names a count: OpenBLAS's thread per core
# competes with tensor._by_clips' worker (2 cores: a 50-step (8,5,5) fine-tune and
# 64-clip eval took 3.5-3.9 s against 2.2 s); numpy must not be loaded yet
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (CheckpointError, ConfigError, ContractError,
                     DimensionError, GenerationError, MaskvidError,
                     NumericError, SamplingError)
from .masking import MaskMap, leakage_probe, make_mask
from .model import (MAEParams, ModelConfig, classify, cube_embed, decode, encode,
                    init_head_params, init_mae_params, mae_forward_batch,
                    pos_embed_table, reconstruct, vit_base_config)
from .tensor import Param, Tape, Tensor, attention_block, finite_diff_check
from .training import (Checkpoint, OptimState, TrainConfig, adamw_step,
                       cosine_warmup_lr, finetune, linear_probe,
                       load_checkpoint, masked_mse_loss,
                       params_from_checkpoint, pretrain, save_checkpoint,
                       scaled_lr)
from .video import (CubeGrid, SpriteDataset, TargetCubes, VideoClip, clip_size,
                    cubify, decubify, normalize_cube_targets,
                    synth_moving_sprites)

__version__ = "0.1.0"
