"""Walk one clip through the full masked-autoencoding pipeline.

Generates a moving sprite, tokenizes it into 2x16x16 cubes, hides 90% of the
spatial sites with tube masking, trains briefly so the reconstruction is
recognizable, and writes original / masked / reconstructed frames as PPM
images next to this script.
"""

import os

import numpy as np

from maskvid.masking import make_mask, mask_to_text
from maskvid.model import ModelConfig, reconstruct
from maskvid.training import TrainConfig, params_from_checkpoint, pretrain
from maskvid.video import cubify, synth_moving_sprites
from maskvid.viz import frame_to_image, gray_masked_cubes, write_ppm

OUT = os.path.join(os.path.dirname(__file__), "out_reconstruction")


def main():
    os.makedirs(OUT, exist_ok=True)
    dataset = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    clip, label = dataset[0]
    print(f"clip: {clip.pixels.shape}, moving {dataset.classes[label]}")

    grid = cubify(clip)
    print(f"token grid {grid.dims} -> {grid.tokens.shape[0]} cubes of width {grid.tokens.shape[1]}")

    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    print(f"tube mask: {mask.n_masked} masked / {mask.n_visible} visible tokens")
    print(mask_to_text(mask))

    # short memorization run on this one clip so the decoder has something to say
    cfg = TrainConfig(base_lr=2.56, batch_size=1, total_steps=300,
                      mask_strategy="tube", mask_ratio=0.9, seed=0,
                      weight_decay=0.0)
    result = pretrain(cfg, dataset.subset([0]), model_cfg=ModelConfig())
    first, last = result.trace[0][2], result.trace[-1][2]
    print(f"pretraining loss {first:.4f} -> {last:.4f} over {len(result.trace)} steps")

    recon = reconstruct(clip, mask, params_from_checkpoint(result.checkpoint))
    masked_view = gray_masked_cubes(clip, mask)

    for f in (0, 7, 15):
        write_ppm(os.path.join(OUT, f"frame{f:02d}_original.ppm"), frame_to_image(clip, f))
        write_ppm(os.path.join(OUT, f"frame{f:02d}_masked.ppm"), frame_to_image(masked_view, f))
        write_ppm(os.path.join(OUT, f"frame{f:02d}_recon.ppm"), frame_to_image(recon, f))
    err = np.abs(recon.pixels - clip.pixels)[:, :, :, :].mean()
    print(f"mean absolute reconstruction error: {err:.4f}")
    print(f"images in {OUT}")


if __name__ == "__main__":
    main()
