"""Distance transforms, thin boundary bands, and the two boundary-aware loss
terms evaluated on perfect vs. shifted masks.
"""

import numpy as np

from crispdec.geometry import boundary_band, boundary_seeds, distance_to_set, \
    signed_distance
from crispdec.losses import boundary_loss, sdf_loss, surface_weights
from crispdec.tensor import Tensor, softmax

labels = np.zeros((32, 32), dtype=np.int64)
labels[8:24, 8:24] = 1

b = boundary_seeds(labels)
band = boundary_band(labels, width_px=2)
print("boundary pixels:", int(b.sum()), " band pixels:", int(band.sum()))

d = distance_to_set(b)
print("distance at center:", float(d[16, 16]), " at corner:", float(d[0, 0]))

sd = signed_distance(labels)
print("signed distance inside < 0:", bool(sd[16, 16] < 0),
      " outside > 0:", bool(sd[0, 0] > 0))

# --- edge-logit supervision ---------------------------------------------------
def edge_logits_from(mask):
    e = np.where(boundary_seeds(mask), 6.0, -6.0)
    return Tensor(e[None, None].astype(np.float64))

perfect = boundary_loss(edge_logits_from(labels), band[None])
shifted_mask = np.roll(labels, 3, axis=1)
shifted = boundary_loss(edge_logits_from(shifted_mask), band[None])
print("\nboundary loss, edges on the band:     ", float(perfect.data))
print("boundary loss, edges shifted by 3 px: ", float(shifted.data))

# --- signed-distance regularizer -----------------------------------------------
def probs_from(mask, k=2):
    z = np.stack([(mask == c) * 8.0 for c in range(k)])
    return softmax(Tensor(z[None].astype(np.float64)), axis=1)

weights = surface_weights(labels[None])
tight = sdf_loss(probs_from(labels), weights)
loose = sdf_loss(probs_from(shifted_mask), weights)
print("\nsdf loss, aligned prediction:", float(tight.data))
print("sdf loss, shifted prediction:", float(loose.data))
print("misaligned transitions cost more:", float(loose.data) > float(tight.data))
