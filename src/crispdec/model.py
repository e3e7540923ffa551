"""Encoder + decoder bundle with ablation switches, checkpointing, and
single-pass inference on the refined logits."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .decoder import DecoderParams, decoder_forward
from .fileio import load_checkpoint, read_fields, save_checkpoint
from .synthdata import init_encoder_params, toy_encoder_forward
from .tensor import Tensor, bilinear_upsample, softmax


@dataclass
class ModelConfig:
    """Every switch of the model, named once; the decoder reads it as is."""

    num_classes: int = 4
    width: int = 32                      # common projection width of the decoder
    use_dmf: bool = True                 # dynamic fusion; off: static concat+1x1
    use_var: bool = True                 # variance head
    use_ugr: bool = True                 # variance-gated refinement
    use_bnd: bool = True                 # boundary head
    use_udmf: bool = True                # uncertainty-modulated second fusion pass
    use_ema: bool = True                 # EMA teacher and relabeling
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.num_classes < 2 or self.width < 1:
            raise ValueError("need num_classes >= 2 and width >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.use_udmf and not (self.use_dmf and self.use_var):
            raise ValueError("uncertainty-modulated fusion needs DMF and the variance head")
        if self.use_ugr and not self.use_var:
            raise ValueError("refinement needs the variance head")

    def flags_line(self) -> str:
        on = [n for n in ("dmf", "var", "ugr", "bnd", "udmf", "ema")
              if getattr(self, f"use_{n}")]
        return "+".join(on) if on else "baseline"


class SegModel:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        dtype = np.dtype(cfg.dtype).type
        rng = np.random.default_rng(cfg.seed)
        self.encoder = init_encoder_params(rng, dtype=dtype)
        self.decoder = DecoderParams(cfg, rng, dtype=dtype)

    @property
    def params(self) -> dict[str, Tensor]:
        out = {f"enc.{k}": v for k, v in self.encoder.items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.tensors.items()})
        return out

    def forward(self, images: np.ndarray, detach_p: bool = False):
        x = Tensor(np.asarray(images, dtype=self.params_dtype()))
        if x.data.ndim == 3:
            x = Tensor(x.data[None])
        pyramid = toy_encoder_forward(x, self.encoder)
        return decoder_forward(pyramid, self.decoder, detach_p=detach_p)

    def params_dtype(self):
        return next(iter(self.encoder.values())).data.dtype

    def predict(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard labels and max-softmax confidences at full resolution, from
        the refined logits; no post-processing."""
        arr = np.asarray(images)
        if arr.ndim == 3:
            arr = arr[None]
        h, w = arr.shape[2] , arr.shape[3]
        out = self.forward(arr)
        z_up = bilinear_upsample(out.zstar, h, w)
        p = softmax(z_up, axis=1).data
        return p.argmax(axis=1), p.max(axis=1)

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        params = self.params
        if set(state) != set(params):
            raise ValueError("parameter manifest mismatch")
        for k, arr in state.items():
            if params[k].data.shape != arr.shape:
                raise ValueError(f"{k}: shape mismatch")
            params[k].data[...] = arr

    def clone(self) -> "SegModel":
        other = SegModel(self.cfg)
        other.load_state_dict(self.state_dict())
        return other

    def save(self, directory):
        import os

        roles = {k: ("encoder" if k.startswith("enc.") else "decoder")
                 for k in self.params}
        save_checkpoint(directory, self.params, roles)
        with open(os.path.join(directory, "model_config.txt"), "w") as fh:
            for key, val in vars(self.cfg).items():
                fh.write(f"{key}={val}\n")

    def load(self, directory):
        state = load_checkpoint(directory)
        dtype = self.params_dtype()
        self.load_state_dict({k: v.astype(dtype) for k, v in state.items()})

    @classmethod
    def from_checkpoint(cls, directory) -> "SegModel":
        """The model `save` wrote to `directory`. Its model_config.txt must
        name every ModelConfig field; anything else raises ValueError."""
        import os

        path = os.path.join(directory, "model_config.txt")
        kwargs = read_fields(path, ModelConfig)
        missing = [f.name for f in fields(ModelConfig) if f.name not in kwargs]
        if missing:
            raise ValueError(f"{path}: missing {', '.join(missing)}")
        try:
            cfg = ModelConfig(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        model = cls(cfg)
        model.load(directory)
        return model
