#!/usr/bin/env python3
"""How an utterance becomes conversation-aware.

Builds the interleaved dialog sequence, runs the attention-encoder
layer over a batch of two dialogs packed into one sequence, shows that
identical utterances in different dialogs get different contextual
vectors, and checks one analytic gradient against finite differences.
"""

import numpy as np

from ercml import build_dialog_sequence, encode_dialog, init_encoder
from ercml.corpus import Dialog, Utterance
from ercml.embeddings import SentenceEmbeddingStore
from ercml.encoder import encode_dialog_backward
from ercml.gradcheck import fd_gradients, group_relative_error

rng = np.random.default_rng(0)
DIM = 16

def dialog_of(dialog_id, texts):
    return Dialog(
        id=dialog_id,
        utterances=tuple(Utterance(index=i, text=t, label=0) for i, t in enumerate(texts)),
    )

# The same sentence dropped into two very different conversations.
shared = "I can not believe it ."
d1 = dialog_of("good", ["You won the grand prize !", shared])
d2 = dialog_of("bad", ["Your flight was cancelled again .", shared])

shared_vec = rng.standard_normal(DIM)
store = SentenceEmbeddingStore(
    entries={
        "good#0": rng.standard_normal(DIM), "good#1": shared_vec.copy(),
        "bad#0": rng.standard_normal(DIM), "bad#1": shared_vec.copy(),
    },
    dim=DIM,
)

params = init_encoder(DIM, heads=4, seed=0)
seq = build_dialog_sequence(d1, store, params)
print(f"dialog of {len(d1)} utterances -> sequence of {seq.tokens.shape[0]} rows "
      f"(separators at {seq.sep_positions})")

stack = [params]  # the encoder is a stack of layers; the published model has one
# One pass encodes the whole batch; the attention mask keeps each dialog
# to itself, so its rows match a pass over that dialog alone.
ctx_good, ctx_bad = np.split(encode_dialog([d1, d2], store, stack).contextual, [len(d1)])
alone = encode_dialog([d1], store, stack).contextual
print(f"batch of 2 vs dialog alone: rows differ by at most {np.abs(ctx_good - alone).max():.1e}")
drift = float(np.linalg.norm(ctx_good[1] - ctx_bad[1]))
print(f"same utterance, two dialogs: contextual vectors differ by L2 {drift:.3f}")
print("(the frozen input vectors were identical; the context did that)")

# Every backward pass in this package is hand-written; verify one here.
coeffs = rng.standard_normal(ctx_good.shape)
encoding = encode_dialog([d1], store, stack)
analytic = encode_dialog_backward(coeffs, encoding, stack)  # keyed "<layer>.<name>"

def loss():
    return float((coeffs * encode_dialog([d1], store, stack).contextual).sum())

numeric = fd_gradients(loss, {"0.w_q": params.w_q, "0.sep": params.sep}, eps=1e-4)
for name in ("0.w_q", "0.sep"):
    err = group_relative_error(analytic[name], numeric[name])
    print(f"gradient check {name:4s}: relative error {err:.2e}")
