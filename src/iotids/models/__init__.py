"""From-scratch classifiers sharing one model protocol: n_features,
n_classes, predict(X), to_dict() and from_dict(d); models with class
probabilities also have predict_proba(X), and then predict(X) equals
predict_proba(X).argmax(axis=1)."""
