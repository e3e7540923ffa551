"""How the dynamic fusion head allocates per-pixel weight across the four
pyramid scales, and what the uncertainty modulation does to those weights.
"""

import numpy as np

from crispdec.decoder import DecoderParams, FeaturePyramid, dmf_fuse, \
    project_and_upsample
from crispdec.model import ModelConfig
from crispdec.tensor import Tensor

rng = np.random.default_rng(1)


def pyramid(n=1):
    return FeaturePyramid(
        Tensor(rng.standard_normal((n, 8, 16, 16))),
        Tensor(rng.standard_normal((n, 16, 8, 8))),
        Tensor(rng.standard_normal((n, 24, 4, 4))),
        Tensor(rng.standard_normal((n, 32, 2, 2))),
    )


params = DecoderParams(ModelConfig(), rng)
e_list = project_and_upsample(pyramid(), params)

# score convs start at zero, so every scale gets exactly 1/4
_, w = dmf_fuse(e_list, params)
print("mean weight per scale at init:", w.data.mean(axis=(0, 2, 3)))

# perturb the scores: weights move but stay a per-pixel distribution
for i in range(1, 5):
    params[f"score{i}.w"].data[:] = 0.3 * rng.standard_normal(
        params[f"score{i}.w"].shape)
_, w = dmf_fuse(e_list, params)
print("after perturbing scores:      ", w.data.mean(axis=(0, 2, 3)))
print("weights still sum to one:", np.allclose(w.data.sum(axis=1), 1.0))

# the uncertainty modulation shifts every scale's score by the same map, which
# cancels inside the softmax: the weights do not move
u = Tensor(rng.random((1, 1, 16, 16)))
_, w_mod = dmf_fuse(e_list, params, u_down=u)
print("uncertainty shift changed weights by:",
      float(np.abs(w.data - w_mod.data).max()))
