"""The variance head, the gated residual correction, and how predicted
uncertainty turns into per-pixel loss weights.
"""

import numpy as np

from crispdec.decoder import DecoderParams, FeaturePyramid, decoder_forward
from crispdec.model import ModelConfig
from crispdec.losses import mix_uncertainty
from crispdec.tensor import Tensor, bilinear_upsample, log_softmax, softmax

rng = np.random.default_rng(2)
pyr = FeaturePyramid(
    Tensor(rng.standard_normal((1, 8, 16, 16))),
    Tensor(rng.standard_normal((1, 16, 8, 8))),
    Tensor(rng.standard_normal((1, 24, 4, 4))),
    Tensor(rng.standard_normal((1, 32, 2, 2))),
)
params = DecoderParams(ModelConfig(use_udmf=False), rng)  # one fusion pass
out = decoder_forward(pyr, params)

print("aleatoric map range (channel-mean variance):", float(out.u_ale.data.min()),
      "..", float(out.u_ale.data.max()))
print("gate at init (should sit near 0.1):", float(out.gate.data.mean()))
print("max |Z* - Z| at init (correction tower starts at zero):",
      float(np.abs(out.zstar.data - out.z.data).max()))

# push the correction tower away from zero: the gate now admits a residual
params["phi2.w"].data[:] = 0.5 * rng.standard_normal(params["phi2.w"].shape)
out = decoder_forward(pyr, params)
print("max |Z* - Z| with a live tower:",
      float(np.abs(out.zstar.data - out.z.data).max()))

# uncertainty -> loss weight: w = exp(-beta * U), U mixing normalized
# aleatoric variance with prediction entropy
zstar_up = bilinear_upsample(out.zstar, 64, 64)
u, w = mix_uncertainty(bilinear_upsample(out.u_ale, 64, 64), softmax(zstar_up, axis=1),
                       log_softmax(zstar_up, axis=1), alpha=0.5)
u, w = u.data, w.data
print("\nmixed uncertainty range:", float(u.min()), "..", float(u.max()))
print("loss-weight range (exp(-2U)):", float(w.min()), "..", float(w.max()))
order = np.argsort(u.ravel())
print("weights fall as uncertainty rises:",
      bool(np.all(np.diff(w.ravel()[order]) <= 1e-12)))
