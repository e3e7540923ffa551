"""End-to-end weakly supervised training on a small synthetic set: corrupted
seed labels in, the loss curve and holdout scores of the trained model out,
next to the scores of the seed labels themselves. Runs in seconds.

Six epochs on 32 scenes is a smoke run, not a result: the model's holdout
mIoU stays below that of the seed labels and its boundary F1 is near zero,
because it predicts mostly background.
"""

import numpy as np

from crispdec.loop import TrainConfig, train
from crispdec.metrics import boundary_f1, miou
from crispdec.model import ModelConfig, SegModel
from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset

data = make_dataset(32, SceneSpec(seed=42), CorruptionSpec())
holdout = make_dataset(16, SceneSpec(seed=43), CorruptionSpec())

# how bad are the seeds we train from?
seed_scores = [miou(s.seed.yhat[0], s.gt, 4)[1] for s in data]
print("mean seed-vs-gt mIoU:", round(float(np.mean(seed_scores)), 4))

model = SegModel(ModelConfig(seed=0, dtype="float32"))
cfg = TrainConfig(epochs=6, batch_size=8, lr_decoder=4e-3, ema_tau=0.98,
                  q_anneal_epochs=4, relabel_period=4, keep_fraction=0.85,
                  detach_p_epochs=2, seed=0)
logs = train(cfg, data, model)
print("loss first step: %.4f   last step: %.4f" % (
    logs[0]["l_total"], logs[-1]["l_total"]))

scores = []
for s in holdout:
    pred, _ = model.predict(s.image)
    scores.append((miou(pred[0], s.gt, 4)[1], boundary_f1(pred[0], s.gt)))
scores = np.array(scores)
print("holdout model mIoU: %.4f   boundary F1: %.4f" % tuple(scores.mean(axis=0)))

seed_holdout = [miou(s.seed.yhat[0], s.gt, 4)[1] for s in holdout]
print("holdout seed-label mIoU:", round(float(np.mean(seed_holdout)), 4))
