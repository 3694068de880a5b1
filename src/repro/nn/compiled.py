"""Compiled execution plans: trace a ``GraphNetwork`` into a flat op schedule.

The plan is the one network engine: it computes every training step's
loss and gradient and every prediction.  Search workloads run thousands
of 20-epoch trainings of small networks, so a step must not rebuild a
graph or allocate its temporaries.  ``GraphNetwork.compile()`` walks the
architecture **once** and emits a flat schedule of fused ops:

- ``_DenseOp`` — affine + activation in one step (``act(x @ W + b)``),
  with the activation's backward auxiliaries (ReLU mask, sigmoid/swish
  values) stored in preallocated buffers.  The activations are
  branchless (``fmax`` for ReLU, one shared divide for the sigmoid): a
  masked ``copyto`` on a random mask costs ~10x a plain ufunc;
- ``_SkipOp`` — skip-connection fusion: all incoming projections, the
  sums, and the ReLU execute as one step (projection + sum + ReLU fused);
- identity nodes emit **no op at all**: their output slot aliases the
  input slot at trace time.

Execution writes into per-batch-size buffer sets (allocated on first use,
reused forever after), parameter gradients land in views of one flat
gradient vector laid out like the model's flat parameter vector, and the
steady-state train step does zero graph construction and near-zero
allocation.

Numerical contract: the plan replays the *exact* operation order of the
eager reverse-mode tape kept as the oracle in ``tests/reference/``
(same kernels, same association order for skip sums, the same
stable-sigmoid formula), so forward values match the eager reference
bitwise and losses and gradients to float round-off; the gate that
checks this is ``assert_plan_equivalence`` in ``tests/reference/eager.py``.

The data-parallel trainer needs only ``loss_and_grad`` over the
concatenated global batch.  :meth:`CompiledPlan.loss_and_grads_ranked`
returns per-rank losses and gradients of ``n`` stacked micro-batches as a
loop of ``loss_and_grad`` calls.  No trainer calls it; it stays while
``perfbench/spans.py`` names it as a tracer target.

Buffer-reuse invariants (see DESIGN.md §Performance):

1. every forward value slot is written exactly once per step and stays
   valid until the next ``loss_and_grad``/``predict_logits`` call on the
   same plan (backward reads forward values);
2. gradient slots are written by their *first* consumer in reverse
   schedule order (a plain write, precomputed at trace time) and ``+=``
   by every later consumer — no zeroing pass is needed;
3. there is one flat gradient, ``mean_grad_flat``: every parameter's
   gradient is a view of it (``mean_grad_views``), and every view is fully
   overwritten each step (every parameter has exactly one consuming op),
   so stale values can never leak between steps; parameters carry no
   gradient of their own;
4. the activation auxiliaries are one ``bool`` mask per ReLU (``x > 0``)
   and one ``bool`` mask (``x >= 0``) plus one float scratch per
   sigmoid/swish; there are no negated-mask buffers;
5. a plan is **not** thread-safe, and neither is
   ``GraphNetwork.predict_logits``, which runs on the model's plan:
   concurrent evaluations must use one model per thread (which the
   evaluators do — one model per candidate).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense

__all__ = ["CompiledPlan"]


def _relu_into(x: np.ndarray, mask: np.ndarray) -> None:
    """In-place ReLU that stores the backward mask ``x > 0``.

    Bitwise equal to the eager ``np.where(x > 0, x, 0.0)``: ``fmax`` maps
    NaN and -inf to 0 and keeps subnormals, and adding ``0.0`` turns the
    ``-0.0`` that ``fmax(-0.0, 0.0)`` may return into ``+0.0``.
    """
    np.greater(x, 0.0, out=mask)
    np.fmax(x, 0.0, out=x)
    x += 0.0


def _sigmoid_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                  pos: np.ndarray) -> None:
    """Numerically stable sigmoid, bitwise equal to the eager formula.

    The eager path computes ``1 / (1 + exp(-x))`` for ``x >= 0`` and
    ``e / (1 + e)`` with ``e = exp(x)`` otherwise; both exponentials are
    ``e = exp(-|x|)``.  As ``e`` lies in ``[0, 1]``, ``maximum(e, x >= 0)``
    is exactly the numerator of either branch, so one divide serves both.
    ``-|x|`` is taken as ``minimum(x, -x)``, which returns a NaN input
    unchanged (sign included), as the eager path does.  ``out`` may alias
    ``x``.
    """
    np.greater_equal(x, 0.0, out=pos)
    np.negative(x, out=scratch)
    np.minimum(x, scratch, out=scratch)   # -|x|
    np.exp(scratch, out=scratch)          # e = exp(-|x|)
    np.maximum(scratch, pos, out=out)     # 1 where x >= 0, else e
    scratch += 1.0
    out /= scratch


class _DenseOp:
    """Fused affine + activation: ``out = act(in @ W + b)``."""

    __slots__ = ("layer", "activation", "in_slot", "out_slot",
                 "in_needs_grad", "first_touch")

    def __init__(self, layer: Dense, in_slot: int, out_slot: int) -> None:
        self.layer = layer
        self.activation = layer.activation
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.in_needs_grad = True   # patched by the plan for the input slot
        self.first_touch = True     # patched by the plan (reverse-order scan)

    def forward(self, vals: list[np.ndarray], aux: dict) -> None:
        h = vals[self.in_slot]
        out = vals[self.out_slot]
        np.matmul(h, self.layer.W.data, out=out)
        out += self.layer.b.data
        act = self.activation
        if act is None or act == "identity":
            return
        if act == "relu":
            _relu_into(out, aux[(id(self), "mask")])
        elif act == "tanh":
            np.tanh(out, out=out)  # backward reads the stored output
        elif act == "sigmoid":
            _sigmoid_into(out, out, aux[(id(self), "scr")], aux[(id(self), "pos")])
        elif act == "swish":
            sig = aux[(id(self), "sig")]
            _sigmoid_into(out, sig, aux[(id(self), "scr")], aux[(id(self), "pos")])
            np.multiply(out, sig, out=out)
        else:  # pragma: no cover - Dense rejects unknown activations
            raise AssertionError(f"unknown activation {act!r}")

    def backward(self, vals: list[np.ndarray], grads: list[np.ndarray | None],
                 aux: dict, gW: np.ndarray, gb: np.ndarray) -> None:
        dout = grads[self.out_slot]
        act = self.activation
        if act == "relu":
            dout *= aux[(id(self), "mask")]
        elif act == "tanh":
            v = vals[self.out_slot]
            scr = aux[(id(self), "scr")]
            np.multiply(v, v, out=scr)
            np.subtract(1.0, scr, out=scr)
            dout *= scr
        elif act == "sigmoid":
            v = vals[self.out_slot]
            scr = aux[(id(self), "scr")]
            np.subtract(1.0, v, out=scr)
            dout *= v
            dout *= scr
        elif act == "swish":
            sig = aux[(id(self), "sig")]
            scr = aux[(id(self), "scr")]
            v = vals[self.out_slot]
            np.subtract(1.0, sig, out=scr)
            scr *= v
            scr += sig
            dout *= scr
        h = vals[self.in_slot]
        np.matmul(h.T, dout, out=gW)
        np.sum(dout, axis=0, out=gb)
        if self.in_needs_grad:
            din = grads[self.in_slot]
            if self.first_touch:
                np.matmul(dout, self.layer.W.data.T, out=din)
            else:
                tmp = aux[(id(self), "dtmp")]
                np.matmul(dout, self.layer.W.data.T, out=tmp)
                din += tmp


class _SkipOp:
    """Fused skip connection: ``out = relu(base + Σ_s proj_s(h_s))``.

    Sources are summed in ascending-source order — the association order of
    the eager path — so the forward values match bitwise.
    """

    __slots__ = ("base_slot", "sources", "out_slot",
                 "base_needs_grad", "base_first_touch", "source_flags")

    def __init__(self, base_slot: int,
                 sources: list[tuple[int, Dense]], out_slot: int) -> None:
        self.base_slot = base_slot
        self.sources = sources  # [(slot, projection layer)] ascending source
        self.out_slot = out_slot
        self.base_needs_grad = True
        self.base_first_touch = True
        # per source (reverse order): (needs_grad, first_touch)
        self.source_flags: list[tuple[bool, bool]] = [(True, True)] * len(sources)

    def forward(self, vals: list[np.ndarray], aux: dict) -> None:
        acc = vals[self.out_slot]
        ptmp = aux[(id(self), "ptmp")]
        for k, (slot, proj) in enumerate(self.sources):
            np.matmul(vals[slot], proj.W.data, out=ptmp)
            ptmp += proj.b.data
            if k == 0:
                np.add(vals[self.base_slot], ptmp, out=acc)
            else:
                acc += ptmp
        _relu_into(acc, aux[(id(self), "mask")])

    def backward(self, vals: list[np.ndarray], grads: list[np.ndarray | None],
                 aux: dict, param_grads: dict) -> None:
        dacc = grads[self.out_slot]
        dacc *= aux[(id(self), "mask")]
        if self.base_needs_grad:
            dbase = grads[self.base_slot]
            if self.base_first_touch:
                np.copyto(dbase, dacc)
            else:
                dbase += dacc
        # Reverse source order mirrors the eager tape's unwinding of the
        # nested adds, keeping multi-consumer accumulation order identical.
        for k in range(len(self.sources) - 1, -1, -1):
            slot, proj = self.sources[k]
            needs_grad, first = self.source_flags[k]
            gW, gb = param_grads[id(proj)]
            h = vals[slot]
            np.matmul(h.T, dacc, out=gW)
            np.sum(dacc, axis=0, out=gb)
            if needs_grad:
                dsrc = grads[slot]
                if first:
                    np.matmul(dacc, proj.W.data.T, out=dsrc)
                else:
                    dtmp = aux[(id(self), "dtmp", k)]
                    np.matmul(dacc, proj.W.data.T, out=dtmp)
                    dsrc += dtmp


class _BufferSet:
    """All per-batch-size arrays one plan execution needs."""

    __slots__ = ("vals", "grads", "aux", "rows", "probs", "rowred")

    def __init__(self, plan: "CompiledPlan", n: int) -> None:
        dt = plan.dtype
        widths = plan.slot_widths
        self.vals: list[np.ndarray] = [np.empty((n, w), dtype=dt) for w in widths]
        # Slot 0 is the input design matrix; it is replaced per call.
        self.grads: list[np.ndarray | None] = [
            None if s == 0 else np.empty((n, w), dtype=dt)
            for s, w in enumerate(widths)
        ]
        aux: dict = {}
        for op in plan.ops:
            key = id(op)
            if isinstance(op, _DenseOp):
                w = widths[op.out_slot]
                act = op.activation
                if act == "relu":
                    aux[(key, "mask")] = np.empty((n, w), dtype=bool)
                elif act == "tanh":
                    aux[(key, "scr")] = np.empty((n, w), dtype=dt)
                elif act in ("sigmoid", "swish"):
                    aux[(key, "scr")] = np.empty((n, w), dtype=dt)
                    aux[(key, "pos")] = np.empty((n, w), dtype=bool)
                    if act == "swish":
                        aux[(key, "sig")] = np.empty((n, w), dtype=dt)
                if op.in_needs_grad and not op.first_touch:
                    aux[(key, "dtmp")] = np.empty((n, widths[op.in_slot]), dtype=dt)
            else:  # _SkipOp
                w = widths[op.out_slot]
                aux[(key, "ptmp")] = np.empty((n, w), dtype=dt)
                aux[(key, "mask")] = np.empty((n, w), dtype=bool)
                for k, (slot, _) in enumerate(op.sources):
                    needs_grad, first = op.source_flags[k]
                    if needs_grad and not first:
                        aux[(key, "dtmp", k)] = np.empty((n, widths[slot]), dtype=dt)
        self.aux = aux
        self.rows = np.arange(n)
        n_classes = widths[plan.logits_slot]
        self.probs = np.empty((n, n_classes), dtype=dt)
        self.rowred = np.empty((n, 1), dtype=dt)


class CompiledPlan:
    """Flat, fused, buffer-reusing execution plan for one ``GraphNetwork``.

    Built by :meth:`repro.nn.graph_network.GraphNetwork.compile`.  The plan
    holds references to the network's layers and reads their parameter
    arrays at every execution, so in-place optimizer updates and
    ``set_weights`` are picked up without re-tracing.
    """

    def __init__(self, model) -> None:
        self.dtype = model.dtype
        spec = model.spec
        m = spec.num_nodes

        slot_widths: list[int] = [model.input_dim]   # slot 0 = input
        node_slot: list[int] = [0]                   # graph node -> slot
        ops: list[_DenseOp | _SkipOp] = []

        def new_slot(width: int) -> int:
            slot_widths.append(width)
            return len(slot_widths) - 1

        for i in range(1, m + 2):  # variable nodes, then the output node
            incoming = node_slot[i - 1]
            skip_sources = sorted(
                s for (s, d) in model._projections if d == i
            )
            if skip_sources:
                out = new_slot(slot_widths[incoming])
                ops.append(_SkipOp(
                    incoming,
                    [(node_slot[s], model._projections[(s, i)]) for s in skip_sources],
                    out,
                ))
                incoming = out
            if i <= m:
                layer = model._node_layers[i - 1]
                if layer is None:
                    node_slot.append(incoming)  # identity: alias, no op
                else:
                    out = new_slot(layer.units)
                    ops.append(_DenseOp(layer, incoming, out))
                    node_slot.append(out)
            else:
                out = new_slot(model.n_classes)
                ops.append(_DenseOp(model._output, incoming, out))
                self.logits_slot = out

        self.ops = ops
        self.slot_widths = slot_widths

        # Reverse-order scan: decide, per gradient slot, which consumer
        # writes first (plain store) and which accumulate (+=).  Slot 0 is
        # the input and never receives a gradient.
        touched: set[int] = set()

        def claim(slot: int) -> tuple[bool, bool]:
            if slot == 0:
                return False, True
            first = slot not in touched
            touched.add(slot)
            return True, first

        for op in reversed(ops):
            if isinstance(op, _DenseOp):
                op.in_needs_grad, op.first_touch = claim(op.in_slot)
            else:
                op.base_needs_grad, op.base_first_touch = claim(op.base_slot)
                op.source_flags = [claim(slot) for slot, _ in reversed(op.sources)]
                op.source_flags.reverse()  # re-align with ascending sources

        # Flat layout: each parameter occupies one contiguous
        # [offset, offset + size) span, in ``parameters()`` order — the
        # layout of the model's flat parameter vector.
        params = model.parameters()
        self.param_segments: list[tuple[int, int, tuple[int, ...]]] = []
        offset = 0
        for p in params:
            self.param_segments.append((offset, p.data.size, p.data.shape))
            offset += p.data.size
        self.num_flat_params = offset

        # The one flat gradient Adam reads.  ``loss_and_grad`` writes its
        # per-parameter gradients straight into these views, so no
        # defensive copy is needed.
        self.mean_grad_flat = np.empty(self.num_flat_params, dtype=self.dtype)
        self.mean_grad_views: list[np.ndarray] = [
            self.mean_grad_flat[o : o + s].reshape(shape)
            for o, s, shape in self.param_segments
        ]

        # Per-layer (gW, gb) gradient views, in op order; each layer is
        # consumed by exactly one op, so every view is fully overwritten
        # each step.
        grad_of = {id(p): g for p, g in zip(params, self.mean_grad_views)}
        layers: list[Dense] = [
            layer
            for op in ops
            for layer in ([op.layer] if isinstance(op, _DenseOp)
                          else [proj for _, proj in op.sources])
        ]
        self.param_grads: dict[int, tuple[np.ndarray, np.ndarray]] = {
            id(layer): (grad_of[id(layer.W)], grad_of[id(layer.b)])
            for layer in layers
        }

        self._buffers: dict[int, _BufferSet] = {}

    # ------------------------------------------------------------------ #
    def buffers_for(self, n: int) -> _BufferSet:
        bufs = self._buffers.get(n)
        if bufs is None:
            bufs = _BufferSet(self, n)
            self._buffers[n] = bufs
        return bufs

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------ #
    def _forward(self, X: np.ndarray, bufs: _BufferSet) -> np.ndarray:
        bufs.vals[0] = X
        aux = bufs.aux
        vals = bufs.vals
        for op in self.ops:
            op.forward(vals, aux)
        return vals[self.logits_slot]

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean softmax cross-entropy and its gradients, in one fused pass.

        On return ``mean_grad_flat`` holds the fresh gradient, ready for
        ``optimizer.apply_gradients`` (the buffer is fully overwritten,
        never accumulated across steps, so no zeroing is required).
        """
        X = np.ascontiguousarray(X, dtype=self.dtype)
        y = np.asarray(y)
        n = X.shape[0]
        bufs = self.buffers_for(n)
        logits = self._forward(X, bufs)

        # Softmax cross-entropy, replaying the eager op order exactly.
        shifted = bufs.probs
        rowred = bufs.rowred
        np.max(logits, axis=1, keepdims=True, out=rowred)
        np.subtract(logits, rowred, out=shifted)
        dlogits = bufs.grads[self.logits_slot]
        np.exp(shifted, out=dlogits)                       # exp(shifted), reused
        np.sum(dlogits, axis=1, keepdims=True, out=rowred)
        np.log(rowred, out=rowred)
        shifted -= rowred                                  # log-probs
        labels = y.astype(np.intp, copy=False)
        picked = shifted[bufs.rows, labels]
        loss = -float(picked.mean())

        # d loss / d logits = (softmax - onehot) / n
        c = 1.0 / n
        np.exp(shifted, out=dlogits)                       # softmax
        dlogits *= c
        dlogits[bufs.rows, labels] -= c

        vals, grads, aux = bufs.vals, bufs.grads, bufs.aux
        for op in reversed(self.ops):
            if isinstance(op, _DenseOp):
                gW, gb = self.param_grads[id(op.layer)]
                op.backward(vals, grads, aux, gW, gb)
            else:
                op.backward(vals, grads, aux, self.param_grads)
        return loss

    def loss_and_grads_ranked(
        self, X: np.ndarray, y: np.ndarray, num_ranks: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-rank losses and gradients of stacked micro-batches.

        ``X``/``y`` hold ``num_ranks`` stacked equal-size micro-batches
        (rank ``r`` owns rows ``[r·bs, (r+1)·bs)``); each runs through
        :meth:`loss_and_grad` in turn.  Returns ``(losses, rank_grads)``:
        per-rank mean losses ``(n,)`` (float64) and a fresh ``(n, P)``
        flat gradient matrix in the model's flat parameter order.
        ``mean_grad_flat`` is left holding the last rank's gradient.
        """
        X = np.ascontiguousarray(X, dtype=self.dtype)
        y = np.asarray(y)
        n_rows = X.shape[0]
        if num_ranks < 1 or n_rows % num_ranks:
            raise ValueError(
                f"stacked batch of {n_rows} rows does not split into "
                f"{num_ranks} equal micro-batches"
            )
        bs = n_rows // num_ranks
        losses = np.empty(num_ranks)
        rank_grads = np.empty((num_ranks, self.num_flat_params), dtype=self.dtype)
        for r in range(num_ranks):
            rows = slice(r * bs, (r + 1) * bs)
            losses[r] = self.loss_and_grad(X[rows], y[rows])
            rank_grads[r] = self.mean_grad_flat
        return losses, rank_grads

    def predict_logits(self, X: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference-mode logits, chunked to bound peak buffer memory."""
        X = np.ascontiguousarray(X, dtype=self.dtype)
        n = X.shape[0]
        n_classes = self.slot_widths[self.logits_slot]
        out = np.empty((n, n_classes), dtype=self.dtype)
        for start in range(0, n, batch_size):
            chunk = X[start : start + batch_size]
            bufs = self.buffers_for(chunk.shape[0])
            out[start : start + chunk.shape[0]] = self._forward(
                np.ascontiguousarray(chunk), bufs
            )
        return out

