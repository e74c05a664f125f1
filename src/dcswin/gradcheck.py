"""Finite-difference verification of analytic gradients.

Two flavors:
  * elementwise: perturb every coordinate of every checked tensor by +/-h
    and compare the central difference against the analytic gradient
    (used for individual ops on small shapes);
  * directional: compare grad . v against the central difference of the
    loss along random unit directions v (used for whole models, where
    elementwise probing would cost one forward pass per parameter).

Both report the worst relative error, with the denominator floored at 1 so
near-zero gradients are judged on absolute error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckResult:
    name: str
    worst_rel: float
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_rel < DEFAULT_TOL

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{self.name}: worst rel err {self.worst_rel:.3e} "
                f"(tol {DEFAULT_TOL:.0e}) {status}")


def _rel(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def _analytic_grads(f: Callable[[], Tensor],
                    tensors: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    for t in tensors.values():
        t.grad = None
    with T.Tape() as tape:
        out = f()
        tape.backward(out)
    grads = {}
    for name, t in tensors.items():
        if t.grad is None:
            grads[name] = np.zeros_like(t.data)
        else:
            grads[name] = t.grad.copy()
    return grads


def _eval(f: Callable[[], Tensor]) -> float:
    with T.no_grad():
        return float(f().data)


def check_elementwise(name: str, f: Callable[[], Tensor],
                      tensors: Mapping[str, Tensor]) -> GradCheckResult:
    """Full central-difference sweep over every element of every tensor."""
    grads = _analytic_grads(f, tensors)
    worst = 0.0
    per_tensor: dict[str, float] = {}
    for tname, t in tensors.items():
        worst_t = 0.0
        flat = t.data.reshape(-1)
        gflat = grads[tname].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DEFAULT_H
            up = _eval(f)
            flat[i] = orig - DEFAULT_H
            down = _eval(f)
            flat[i] = orig
            numeric = (up - down) / (2.0 * DEFAULT_H)
            worst_t = max(worst_t, _rel(gflat[i], numeric))
        per_tensor[tname] = worst_t
        worst = max(worst, worst_t)
    return GradCheckResult(name, worst, per_tensor)


def check_directional(name: str, f: Callable[[], Tensor],
                      tensors: Mapping[str, Tensor],
                      rng: np.random.Generator) -> GradCheckResult:
    """Dot-product test along 3 random unit directions, one tensor at a
    time."""
    grads = _analytic_grads(f, tensors)
    worst = 0.0
    per_tensor: dict[str, float] = {}
    for tname, t in tensors.items():
        worst_t = 0.0
        base = t.data.copy()
        for _ in range(3):
            v = rng.standard_normal(t.data.shape)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            v /= norm
            t.data[...] = base + DEFAULT_H * v
            up = _eval(f)
            t.data[...] = base - DEFAULT_H * v
            down = _eval(f)
            t.data[...] = base
            numeric = (up - down) / (2.0 * DEFAULT_H)
            analytic = float((grads[tname] * v).sum())
            worst_t = max(worst_t, _rel(analytic, numeric))
        per_tensor[tname] = worst_t
        worst = max(worst, worst_t)
    return GradCheckResult(name, worst, per_tensor)


# ---------------------------------------------------------------------------
# Named op checks, shared by the test suite and the `gradcheck` CLI command.
# Each builder seeds its own inputs and returns a scalar-valued closure over
# a dict of leaf tensors.


def _leaf(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _probe(x: Tensor) -> Tensor:
    """Reduce any tensor to a scalar with nondegenerate per-element weights."""
    w = Tensor(np.linspace(0.7, 1.3, x.data.size).reshape(x.data.shape))
    return T.reduce_sum(T.mul(x, w))


def _op_cases(seed: int) -> dict[str, tuple[Callable[[], Tensor], dict[str, Tensor]]]:
    rng = np.random.default_rng(seed)
    cases: dict[str, tuple[Callable[[], Tensor], dict[str, Tensor]]] = {}

    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (3, 4))
    cases["add"] = (lambda: _probe(T.add(a, b)), {"a": a, "b": b})
    sa = _leaf(rng, (3, 4))
    sb = _leaf(rng, (3, 4))
    cases["sub"] = (lambda: _probe(T.sub(sa, sb)), {"a": sa, "b": sb})

    c = _leaf(rng, (2, 5))
    d = _leaf(rng, (2, 5))
    cases["mul"] = (lambda: _probe(T.mul(c, d)), {"a": c, "b": d})

    e = _leaf(rng, (2, 3))
    ften = Tensor(rng.uniform(0.5, 1.5, size=(2, 3)), requires_grad=True)
    cases["div"] = (lambda: _probe(T.div(e, ften)), {"a": e, "b": ften})

    g1 = _leaf(rng, (4, 3))
    cases["neg"] = (lambda: _probe(T.neg(g1)), {"a": g1})
    g8 = _leaf(rng, (4, 3))
    cases["scale"] = (lambda: _probe(T.scale(g8, -0.8)), {"a": g8})
    g9 = _leaf(rng, (4, 3))
    cases["add_scalar"] = (lambda: _probe(T.add_scalar(g9, 1.7)), {"a": g9})
    g2 = _leaf(rng, (12,))
    cases["exp"] = (lambda: _probe(T.exp(g2)), {"a": g2})
    g3 = Tensor(rng.uniform(0.2, 3.0, size=(8,)), requires_grad=True)
    cases["log"] = (lambda: _probe(T.log(g3)), {"a": g3})
    g4 = Tensor(rng.uniform(0.2, 3.0, size=(8,)), requires_grad=True)
    cases["sqrt"] = (lambda: _probe(T.sqrt(g4)), {"a": g4})
    g5 = _leaf(rng, (9,), -2.0, 2.0)
    cases["tanh"] = (lambda: _probe(T.tanh(g5)), {"a": g5})

    # keep relu probes away from the kink at 0
    r = rng.uniform(0.2, 1.0, size=(10,)) * rng.choice([-1.0, 1.0], size=(10,))
    g6 = Tensor(r, requires_grad=True)
    cases["relu"] = (lambda: _probe(T.relu(g6)), {"a": g6})
    g7 = _leaf(rng, (10,), -2.5, 2.5)
    cases["gelu"] = (lambda: _probe(T.gelu(g7)), {"a": g7})

    m1 = _leaf(rng, (2, 3, 4))
    m2 = _leaf(rng, (4, 5))
    cases["matmul"] = (lambda: _probe(T.matmul(m1, m2)), {"a": m1, "b": m2})

    bb = _leaf(rng, (1, 4))
    cases["broadcast_to"] = (lambda: _probe(T.broadcast_to(bb, (3, 2, 4))), {"a": bb})

    rs = _leaf(rng, (2, 3, 4))
    cases["reshape"] = (lambda: _probe(T.reshape(rs, (4, 6))), {"a": rs})
    pm = _leaf(rng, (2, 3, 4))
    cases["permute"] = (lambda: _probe(T.permute(pm, (2, 0, 1))), {"a": pm})
    rl = _leaf(rng, (2, 4, 4))
    cases["roll"] = (lambda: _probe(T.roll(rl, (1, -2), (1, 2))), {"a": rl})
    pd = _leaf(rng, (2, 3, 3))
    cases["pad2d"] = (lambda: _probe(T.pad2d(pd, 2, 1)), {"a": pd})
    sl = _leaf(rng, (4, 5))
    cases["slice"] = (lambda: _probe(T.slice_nd(sl, (slice(1, 3), slice(0, 4)))),
                      {"a": sl})
    c1 = _leaf(rng, (2, 3))
    c2 = _leaf(rng, (2, 2))
    cases["concat"] = (lambda: _probe(T.concat([c1, c2], axis=1)), {"a": c1, "b": c2})

    s1 = _leaf(rng, (3, 4))
    cases["sum"] = (lambda: _probe(T.reduce_sum(s1, axis=1)), {"a": s1})
    s2 = _leaf(rng, (3, 4))
    cases["mean"] = (lambda: _probe(T.reduce_mean(s2, axis=0)), {"a": s2})
    s3 = _leaf(rng, (2, 3, 4, 4))
    cases["mean_pool"] = (lambda: _probe(T.mean_pool(s3, (2, 3))), {"a": s3})
    s4 = _leaf(rng, (2, 4, 4, 2))
    cases["avg_pool2d"] = (lambda: _probe(T.avg_pool2d(s4, 2)), {"a": s4})

    sm = _leaf(rng, (3, 5), -3.0, 3.0)
    cases["softmax"] = (lambda: _probe(T.softmax(sm, axis=1)), {"a": sm})
    # 2 heads, Lq != Lk; the mask blocks (-1e9) entries in every row and
    # tiles its 2 window blocks over the 4 batch-major windows
    aq, ak, av = (_leaf(rng, (4, 3, 4)), _leaf(rng, (4, 5, 4)),
                  _leaf(rng, (4, 5, 4)))
    cases["multihead_attention"] = (
        lambda: _probe(T.multihead_attention(aq, ak, av, 2)),
        {"q": aq, "k": ak, "v": av})
    mq, mk, mv = (_leaf(rng, (4, 3, 4)), _leaf(rng, (4, 5, 4)),
                  _leaf(rng, (4, 5, 4)))
    a_mask = np.where(np.arange(30).reshape(2, 3, 5) % 4 == 1, -1e9, 0.0)
    cases["multihead_attention_masked"] = (
        lambda: _probe(T.multihead_attention(mq, mk, mv, 2, a_mask)),
        {"q": mq, "k": mk, "v": mv})
    ls = _leaf(rng, (3, 5), -3.0, 3.0)
    cases["log_softmax"] = (lambda: _probe(T.log_softmax(ls, axis=1)), {"a": ls})

    ce = _leaf(rng, (4, 3), -2.0, 2.0)
    ce_t = rng.integers(0, 3, size=4)
    cases["cross_entropy"] = (lambda: T.cross_entropy(ce, ce_t), {"logits": ce})

    cx = _leaf(rng, (2, 3, 4, 4))
    ck = _leaf(rng, (5, 3))
    cb = _leaf(rng, (5,))
    cases["conv1x1"] = (lambda: _probe(T.conv1x1(cx, ck, cb)),
                        {"x": cx, "w": ck, "b": cb})

    lx = _leaf(rng, (3, 4))
    lw = _leaf(rng, (4, 2))
    lb = _leaf(rng, (2,))
    cases["linear"] = (lambda: _probe(T.linear(lx, lw, lb)),
                       {"x": lx, "w": lw, "b": lb})

    nx = _leaf(rng, (3, 6), -2.0, 2.0)
    ng = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
    nb = _leaf(rng, (6,))
    cases["layer_norm"] = (lambda: _probe(T.layer_norm(nx, ng, nb)),
                           {"x": nx, "gamma": ng, "beta": nb})

    fx = _leaf(rng, (2, 3, 4), -2.0, 2.0)
    fgamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    fbeta, fw1, fb1, fw2, fb2 = (_leaf(rng, s)
                                 for s in ((4,), (4, 6), (6,), (6, 4), (4,)))
    cases["mlp_branch"] = (
        lambda: _probe(T.mlp_branch(fx, fgamma, fbeta, fw1, fb1, fw2, fb2)),
        {"x": fx, "gamma": fgamma, "beta": fbeta, "w1": fw1, "b1": fb1,
         "w2": fw2, "b2": fb2})

    # 2x2 patches of a 4x6 image, so the two grid axes differ
    px = _leaf(rng, (2, 3, 4, 6))
    pw, pb = _leaf(rng, (12, 5)), _leaf(rng, (5,))
    cases["patch_embed"] = (lambda: _probe(T.patch_embed(px, pw, pb, 2)),
                            {"x": px, "w": pw, "b": pb})

    return cases


def _attention_cases(seed: int):
    from .attention import AttentionConfig, AttentionParams, WindowSpec
    from .attention import (cross_attention, mhsa, window_attention,
                            windowed_mhsa)
    from .dynamic_window import hard_selection

    rng = np.random.default_rng(seed)
    cases: dict[str, tuple[Callable[[], Tensor], dict[str, Tensor]]] = {}

    cfg = AttentionConfig(dim=4, num_heads=2)
    params = AttentionParams.init(cfg, np.random.default_rng(seed + 1))
    # give the zero-initialized output projection signal so its grad is checked
    params.wo.data[...] = rng.uniform(-0.5, 0.5, size=params.wo.data.shape)
    tokens = _leaf(rng, (2, 5, 4))
    leaves = {"tokens": tokens, **params.named("p")}
    cases["mhsa"] = (lambda: _probe(mhsa(tokens, params, cfg)), leaves)

    xmap = _leaf(rng, (1, 4, 4, 4))  # [B,H,W,C]
    wparams = AttentionParams.init(cfg, np.random.default_rng(seed + 2))
    wparams.wo.data[...] = rng.uniform(-0.5, 0.5, size=wparams.wo.data.shape)
    spec = WindowSpec(window=2, shift=1)
    wleaves = {"x": xmap, **wparams.named("p")}
    cases["windowed_mhsa"] = (
        lambda: _probe(windowed_mhsa(xmap, wparams, cfg, spec)), wleaves)

    cur = _leaf(rng, (1, 2, 2, 4))
    prev = _leaf(rng, (1, 2, 2, 4))
    cparams = AttentionParams.init(cfg, np.random.default_rng(seed + 3))
    cparams.wo.data[...] = rng.uniform(-0.5, 0.5, size=cparams.wo.data.shape)
    cleaves = {"cur": cur, "prev": prev, **cparams.named("p")}
    cases["cross_attention"] = (
        lambda: _probe(cross_attention(cur, prev, cparams, cfg)), cleaves)

    # 5x5 pads to 6x6 under window 2, so padding and the shift seam both mask
    pmap = _leaf(rng, (1, 5, 5, 4))
    pparams = AttentionParams.init(cfg, np.random.default_rng(seed + 4))
    pparams.wo.data[...] = rng.uniform(-0.5, 0.5, size=pparams.wo.data.shape)
    pspec = WindowSpec(window=2, shift=1)
    cases["windowed_mhsa_padded"] = (
        lambda: _probe(windowed_mhsa(pmap, pparams, cfg, pspec)),
        {"x": pmap, **pparams.named("p")})

    # the first and third specs are equal, so one window takes their
    # summed columns 0 and 2
    mmap = _leaf(rng, (2, 5, 5, 4))
    mix = _leaf(rng, (2, 3))
    mspecs = (WindowSpec(window=4), WindowSpec(window=2, shift=1),
              WindowSpec(window=4))
    cases["window_attention"] = (
        lambda: _probe(window_attention(mmap, pparams, cfg, mspecs, mix)),
        {"x": mmap, "mixture": mix, **pparams.named("p")})

    # The cases below draw after the ones above, which so keep their
    # inputs. A folded layer norm on the padded micro config's maps: 6x6
    # pads to 8x8 under a shifted 4, 3x3 to 4x4 under a shifted 2.
    nparams = AttentionParams.init(cfg, np.random.default_rng(seed + 5))
    nparams.wo.data[...] = rng.uniform(-0.5, 0.5, size=nparams.wo.data.shape)
    norm = (Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True),
            _leaf(rng, (4,)))
    nleaves = {"gamma": norm[0], "beta": norm[1], **nparams.named("p")}
    nspecs = (WindowSpec(window=2, shift=1), WindowSpec(window=4, shift=2))
    nmap = _leaf(rng, (2, 6, 6, 4), -2.0, 2.0)
    nmix = _leaf(rng, (2, 2))
    cases["window_attention_norm"] = (
        lambda: _probe(window_attention(nmap, nparams, cfg, nspecs, nmix,
                                        norm)),
        {"x": nmap, "mixture": nmix, **nleaves})
    # each sample's one-hot choice is another window, so both run
    hmap = _leaf(rng, (2, 6, 6, 4), -2.0, 2.0)
    hard = hard_selection(Tensor([[0.7, 0.3], [0.2, 0.8]]))
    cases["window_attention_norm_hard"] = (
        lambda: _probe(window_attention(hmap, nparams, cfg, nspecs, hard,
                                        norm)),
        {"x": hmap, **nleaves})
    smap = _leaf(rng, (1, 3, 3, 4), -2.0, 2.0)
    cases["windowed_mhsa_norm_padded"] = (
        lambda: _probe(windowed_mhsa(smap, nparams, cfg,
                                     WindowSpec(window=2, shift=1), norm)),
        {"x": smap, **nleaves})

    # two images, and a 3x3 map of keys for a 2x2 map of queries
    scur = _leaf(rng, (2, 2, 2, 4))
    sprev = _leaf(rng, (2, 3, 3, 4))
    cases["cross_attention_sizes"] = (
        lambda: _probe(cross_attention(scur, sprev, cparams, cfg)),
        {"cur": scur, "prev": sprev, **cparams.named("p")})

    return cases


def _dynamic_window_case(seed: int):
    from .attention import AttentionConfig, AttentionParams
    from .dynamic_window import dynamic_window_attention

    rng = np.random.default_rng(seed)
    cfg = AttentionConfig(dim=4, num_heads=2)
    params = AttentionParams.init(cfg, np.random.default_rng(seed + 1))
    params.wo.data[...] = rng.uniform(-0.5, 0.5, size=params.wo.data.shape)
    x = _leaf(rng, (2, 4, 4, 4))
    logits = _leaf(rng, (2, 2))

    def f():
        mix = T.softmax(logits, axis=1)
        return _probe(dynamic_window_attention(x, mix, (2, 4), params, cfg,
                                               shift=False))

    leaves = {"x": x, "mix_logits": logits, **params.named("p")}

    # (2, 4, 4): the two 4-windows share one branch and a summed weight
    xd = _leaf(rng, (2, 4, 4, 4))
    dlogits = _leaf(rng, (2, 3))

    def f_dup():
        mix = T.softmax(dlogits, axis=1)
        return _probe(dynamic_window_attention(xd, mix, (2, 4, 4), params, cfg,
                                               shift=True))

    dleaves = {"x": xd, "mix_logits": dlogits, **params.named("p")}
    return {"dynamic_window_attention": (f, leaves),
            "dynamic_window_attention_duplicates": (f_dup, dleaves)}


def op_names() -> list[str]:
    return sorted(set(_op_cases(0)) | set(_attention_cases(0))
                  | set(_dynamic_window_case(0)))


def run_op_check(name: str,
                 seeds: Sequence[int] = tuple(range(5))) -> GradCheckResult:
    """Elementwise check of one named op over several seeded inputs."""
    worst = GradCheckResult(name, 0.0)
    found = False
    for seed in seeds:
        for table in (_op_cases(int(seed)), _attention_cases(int(seed)),
                      _dynamic_window_case(int(seed))):
            if name in table:
                found = True
                f, leaves = table[name]
                res = check_elementwise(f"{name}[seed={seed}]", f, leaves)
                if res.worst_rel > worst.worst_rel:
                    worst = GradCheckResult(name, res.worst_rel, res.per_tensor)
                break
    if not found:
        raise KeyError(f"unknown op {name!r}; known: {', '.join(op_names())}")
    return worst


def run_model_check() -> GradCheckResult:
    """End-to-end directional check of the micro model's training loss."""
    from .model import DCSWin, ModelConfig

    cfg = ModelConfig.micro()
    model = DCSWin(cfg, seed=0)
    rng = np.random.default_rng(100)
    x = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, cfg.image_size, cfg.image_size)),
               requires_grad=True)
    targets = rng.integers(0, cfg.num_classes, size=2)
    leaves = {"input": x}
    leaves.update(model.named_params())

    def f():
        return T.cross_entropy(model.forward(x), targets)

    return check_directional("model[micro]", f, leaves,
                             np.random.default_rng(200))
