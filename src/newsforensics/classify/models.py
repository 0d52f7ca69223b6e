"""Linear, Bayesian and neural classifiers over encoded feature matrices.

All models expose fit(X, y, seed) / score(X) -> P(positive) and
serialize to JSON-compatible dicts; training is deterministic under a
fixed seed.  A model kind lists its constructor hyperparameters in
``PARAMS`` and its fitted arrays in ``FITTED``, and is saved as those
names' values.  ``FITTED`` maps each array to its shape, whose entries
are sizes, ``"d"`` for the encoded dimension, ``"d+1"`` for one more, or
the name of a hyperparameter that sizes it.
"""

from __future__ import annotations

import numpy as np

from .forest import RandomForestModel


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max."""
    out = np.exp(z - z.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)
    return out


def _to_dict(model) -> dict:
    """Hyperparameters as given, fitted arrays as nested lists."""
    out = {name: getattr(model, name) for name in model.PARAMS}
    out.update((name, getattr(model, name).tolist()) for name in model.FITTED)
    return out


def _from_dict(cls, data: dict):
    model = cls(**{name: data[name] for name in cls.PARAMS})
    for name in cls.FITTED:
        setattr(model, name, np.array(data[name], dtype=float))
    return model


def _check(model, d: int) -> None:
    """Raise ValueError unless each fitted array has its FITTED shape for a
    d-dimensional encoding."""
    sizes = {"d": d, "d+1": d + 1} | {name: getattr(model, name) for name in model.PARAMS}
    for name, dims in model.FITTED.items():
        shape = tuple(sizes.get(dim, dim) for dim in dims)
        got = np.shape(getattr(model, name))
        if got != shape:
            raise ValueError(f"{model.kind} {name} must have shape {shape} for {d} "
                             f"encoded features, got {got}")


class LogisticRegressionModel:
    """L2-penalized logistic regression fitted by Newton steps.

    The penalty (strength 1.0 by default) excludes the intercept;
    iteration stops when the gradient norm drops below the tolerance.
    """

    kind = "logistic_regression"
    PARAMS = ("penalty", "tol", "max_iter")
    FITTED = {"weights": ("d+1",)}
    to_dict = _to_dict
    from_dict = classmethod(_from_dict)
    check = _check

    def __init__(self, penalty: float = 1.0, tol: float = 1e-6, max_iter: int = 100):
        self.penalty = penalty
        self.tol = tol
        self.max_iter = max_iter
        self.weights: np.ndarray | None = None  # last entry is the intercept

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "LogisticRegressionModel":
        del seed  # fitting is deterministic
        n, d = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        w = np.zeros(d + 1)
        penalty_mask = np.ones(d + 1)
        penalty_mask[-1] = 0.0  # intercept unpenalized
        for _ in range(self.max_iter):
            p = _sigmoid(Xb @ w)
            grad = Xb.T @ (p - y) + self.penalty * penalty_mask * w
            if float(np.linalg.norm(grad)) <= self.tol:
                break
            r = np.clip(p * (1 - p), 1e-10, None)
            hess = (Xb * r[:, None]).T @ Xb + self.penalty * np.diag(penalty_mask)
            w = w - np.linalg.solve(hess, grad)
        self.weights = w
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ValueError("model is not fitted")
        Xb = np.hstack([X, np.ones((len(X), 1))])
        return _sigmoid(Xb @ self.weights)


class NaiveBayesModel:
    """Gaussian naive Bayes with per-feature normal likelihoods per class."""

    kind = "naive_bayes"
    PARAMS = ("var_smoothing",)
    FITTED = {"class_log_prior": (2,), "means": (2, "d"), "variances": (2, "d")}
    to_dict = _to_dict
    from_dict = classmethod(_from_dict)
    check = _check

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing
        self.class_log_prior: np.ndarray | None = None
        self.means: np.ndarray | None = None  # shape (2, d)
        self.variances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "NaiveBayesModel":
        del seed
        eps = self.var_smoothing * float(X.var(axis=0).max() or 1.0)
        means, variances, priors = [], [], []
        for cls_value in (0, 1):
            rows = X[y == cls_value]
            if len(rows) == 0:
                raise ValueError("both classes required to fit")
            means.append(rows.mean(axis=0))
            variances.append(rows.var(axis=0) + eps)
            priors.append(len(rows) / len(X))
        self.means = np.array(means)
        self.variances = np.array(variances)
        self.class_log_prior = np.log(priors)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        jll = []
        for cls_value in (0, 1):
            mean, var = self.means[cls_value], self.variances[cls_value]
            log_prob = -0.5 * (
                np.log(2.0 * np.pi * var) + (X - mean) ** 2 / var
            ).sum(axis=1)
            jll.append(self.class_log_prior[cls_value] + log_prob)
        return np.stack(jll, axis=1)

    def score(self, X: np.ndarray) -> np.ndarray:
        if self.means is None:
            raise ValueError("model is not fitted")
        return _softmax(self._joint_log_likelihood(X))[:, 1]


class MlpModel:
    """One sigmoid hidden layer (45 units) with a softmax pair output.

    Trained with full-batch gradient descent on cross-entropy for a
    fixed number of epochs; weight initialization is the only use of
    the seed.
    """

    kind = "mlp"
    PARAMS = ("hidden_units", "epochs", "learning_rate")
    FITTED = {"w1": ("d", "hidden_units"), "b1": ("hidden_units",),
              "w2": ("hidden_units", 2), "b2": (2,)}
    to_dict = _to_dict
    from_dict = classmethod(_from_dict)
    check = _check

    def __init__(self, hidden_units: int = 45, epochs: int = 500, learning_rate: float = 0.5):
        self.hidden_units = hidden_units
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.w1 = self.b1 = self.w2 = self.b2 = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "MlpModel":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n, d = X.shape
        h = self.hidden_units
        limit1 = np.sqrt(6.0 / (d + h))
        limit2 = np.sqrt(6.0 / (h + 2))
        self.w1 = rng.uniform(-limit1, limit1, size=(d, h))
        self.b1 = np.zeros(h)
        self.w2 = rng.uniform(-limit2, limit2, size=(h, 2))
        self.b2 = np.zeros(2)
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), y] = 1.0

        for _ in range(self.epochs):
            hidden, probs = self._forward(X)
            d_logits = (probs - onehot) / n
            d_w2 = hidden.T @ d_logits
            d_b2 = d_logits.sum(axis=0)
            d_hidden = d_logits @ self.w2.T * hidden * (1 - hidden)
            d_w1 = X.T @ d_hidden
            d_b1 = d_hidden.sum(axis=0)

            self.w1 -= self.learning_rate * d_w1
            self.b1 -= self.learning_rate * d_b1
            self.w2 -= self.learning_rate * d_w2
            self.b2 -= self.learning_rate * d_b2
        return self

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and softmax class probabilities."""
        hidden = _sigmoid(X @ self.w1 + self.b1)
        return hidden, _softmax(hidden @ self.w2 + self.b2)

    def score(self, X: np.ndarray) -> np.ndarray:
        if self.w1 is None:
            raise ValueError("model is not fitted")
        return self._forward(X)[1][:, 1]


MODEL_KINDS = {
    "random_forest": RandomForestModel,
    "logistic_regression": LogisticRegressionModel,
    "naive_bayes": NaiveBayesModel,
    "mlp": MlpModel,
}


def make_model(kind: str, **params):
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    return MODEL_KINDS[kind](**params)
