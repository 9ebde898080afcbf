//! Scoring inferences against ground truth (§6).

use serde::{Deserialize, Serialize};

use bgp_dictionary::GroundTruthDictionary;
use bgp_types::Intent;

use crate::classify::Inference;

/// Accuracy of an inference run against a dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Communities with both an inferred label and a ground-truth label.
    pub total: usize,
    /// Of those, correctly labeled.
    pub correct: usize,
    /// Confusion counts: `[truth][inferred]` with 0 = action, 1 = info.
    pub confusion: [[usize; 2]; 2],
    /// Ground-truth-covered communities the method excluded.
    pub covered_excluded: usize,
    /// Ground-truth-covered communities observed at all (the paper's
    /// "6,259 communities covered by the regexes").
    pub covered_observed: usize,
}

fn idx(i: Intent) -> usize {
    match i {
        Intent::Action => 0,
        Intent::Information => 1,
    }
}

impl Evaluation {
    /// Overall accuracy (the paper's 96.5%).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Precision for one class: TP / (TP + FP).
    pub fn precision(&self, class: Intent) -> f64 {
        let c = idx(class);
        let tp = self.confusion[c][c];
        let fp = self.confusion[1 - c][c];
        if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        }
    }

    /// Recall for one class: TP / (TP + FN).
    pub fn recall(&self, class: Intent) -> f64 {
        let c = idx(class);
        let tp = self.confusion[c][c];
        let fun = self.confusion[c][1 - c];
        if tp + fun == 0 {
            0.0
        } else {
            tp as f64 / (tp + fun) as f64
        }
    }

    /// Fraction of dictionary-covered observed communities that received a
    /// label (coverage in the Fig 10 sense).
    pub fn coverage(&self) -> f64 {
        if self.covered_observed == 0 {
            0.0
        } else {
            self.total as f64 / self.covered_observed as f64
        }
    }
}

/// Score an inference against the dictionary.
pub fn evaluate(inference: &Inference, dict: &GroundTruthDictionary) -> Evaluation {
    let by_asn = dict.by_asn();
    let lookup = |c: bgp_types::Community| -> Option<Intent> {
        by_asn
            .get(&c.asn)?
            .iter()
            .find(|e| e.pattern.beta.matches(c.value))
            .map(|e| e.intent)
    };

    let mut eval = Evaluation::default();
    for (&c, &inferred) in &inference.labels {
        if let Some(truth) = lookup(c) {
            eval.total += 1;
            eval.covered_observed += 1;
            eval.confusion[idx(truth)][idx(inferred)] += 1;
            if truth == inferred {
                eval.correct += 1;
            }
        }
    }
    for &c in inference.excluded.keys() {
        if lookup(c).is_some() {
            eval.covered_excluded += 1;
            eval.covered_observed += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Exclusion;
    use bgp_dictionary::DictionaryEntry;
    use bgp_types::Community;

    fn dict() -> GroundTruthDictionary {
        GroundTruthDictionary {
            entries: vec![
                DictionaryEntry {
                    pattern: "1299:25[0-9][0-9]".parse().unwrap(),
                    intent: Intent::Action,
                },
                DictionaryEntry {
                    pattern: r"1299:2\d\d\d\d".parse().unwrap(),
                    intent: Intent::Information,
                },
                DictionaryEntry {
                    pattern: "64511:1".parse().unwrap(),
                    intent: Intent::Action,
                },
            ],
        }
    }

    #[test]
    fn scores_only_covered_labels() {
        let mut inf = Inference::default();
        inf.labels
            .insert(Community::new(1299, 2569), Intent::Action); // ✓
        inf.labels
            .insert(Community::new(1299, 20000), Intent::Action); // ✗ truth info
        inf.labels
            .insert(Community::new(1299, 40000), Intent::Action); // uncovered
        inf.labels
            .insert(Community::new(3356, 1), Intent::Information); // uncovered ASN
        inf.excluded
            .insert(Community::new(64511, 1), Exclusion::PrivateAsn);

        let eval = evaluate(&inf, &dict());
        assert_eq!(eval.total, 2);
        assert_eq!(eval.correct, 1);
        assert_eq!(eval.accuracy(), 0.5);
        assert_eq!(eval.covered_excluded, 1);
        assert_eq!(eval.covered_observed, 3);
        assert!((eval.coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn confusion_and_precision_recall() {
        let mut inf = Inference::default();
        // truth action, inferred action (TP for action).
        inf.labels
            .insert(Community::new(1299, 2500), Intent::Action);
        inf.labels
            .insert(Community::new(1299, 2501), Intent::Action);
        // truth action, inferred info (FN for action).
        inf.labels
            .insert(Community::new(1299, 2502), Intent::Information);
        // truth info, inferred info.
        inf.labels
            .insert(Community::new(1299, 21000), Intent::Information);

        let eval = evaluate(&inf, &dict());
        assert_eq!(eval.confusion[0][0], 2);
        assert_eq!(eval.confusion[0][1], 1);
        assert_eq!(eval.confusion[1][1], 1);
        assert_eq!(eval.precision(Intent::Action), 1.0);
        assert!((eval.recall(Intent::Action) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(eval.recall(Intent::Information), 1.0);
        assert_eq!(eval.precision(Intent::Information), 0.5);
    }

    #[test]
    fn empty_inference() {
        let eval = evaluate(&Inference::default(), &dict());
        assert_eq!(eval.total, 0);
        assert_eq!(eval.accuracy(), 0.0);
        assert_eq!(eval.coverage(), 0.0);
    }

    #[test]
    fn the_first_matching_entry_is_the_truth() {
        let overlapping = GroundTruthDictionary {
            entries: vec![
                DictionaryEntry {
                    pattern: "100:1".parse().unwrap(),
                    intent: Intent::Action,
                },
                DictionaryEntry {
                    pattern: "100:[0-9]".parse().unwrap(),
                    intent: Intent::Information,
                },
            ],
        };
        let mut inf = Inference::default();
        inf.labels.insert(Community::new(100, 1), Intent::Action);
        inf.labels
            .insert(Community::new(100, 2), Intent::Information);
        let eval = evaluate(&inf, &overlapping);
        assert_eq!((eval.total, eval.correct), (2, 2));
        assert_eq!(eval.confusion, [[1, 0], [0, 1]]);
    }

    #[test]
    fn a_class_never_seen_scores_zero_not_nan() {
        let mut inf = Inference::default();
        inf.labels
            .insert(Community::new(1299, 2500), Intent::Action);
        let eval = evaluate(&inf, &dict());
        assert_eq!(eval.accuracy(), 1.0);
        assert_eq!(eval.precision(Intent::Information), 0.0);
        assert_eq!(eval.recall(Intent::Information), 0.0);
        assert_eq!(eval.coverage(), 1.0);
    }

    #[test]
    fn evaluations_roundtrip_through_json() {
        let mut inf = Inference::default();
        inf.labels
            .insert(Community::new(1299, 2500), Intent::Action);
        inf.labels
            .insert(Community::new(1299, 21000), Intent::Action);
        inf.excluded
            .insert(Community::new(64511, 1), Exclusion::PrivateAsn);
        let eval = evaluate(&inf, &dict());
        let json = serde_json::to_string(&eval).unwrap();
        assert_eq!(serde_json::from_str::<Evaluation>(&json).unwrap(), eval);
    }
}
