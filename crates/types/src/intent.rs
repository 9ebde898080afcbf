//! The coarse-grained label the pipeline infers.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::ParseError;

/// The coarse-grained intent of a BGP community (RFC 8092 terminology,
/// Fig 2 of the paper).
///
/// * [`Intent::Action`] — attached by a *neighbor* to influence routing in
///   the AS that owns the community (no-export, prepend, local-pref,
///   blackhole, …).
/// * [`Intent::Information`] — attached by the owning AS *itself* to record
///   metadata (ingress location, neighbor relationship, ROV status, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
#[serde(rename_all = "lowercase")]
pub enum Intent {
    /// Community that induces an action in the owning AS.
    Action,
    /// Community that conveys information recorded by the owning AS.
    Information,
}

impl Intent {
    /// The opposite label; useful when scoring binary classifications.
    pub fn opposite(self) -> Intent {
        match self {
            Intent::Action => Intent::Information,
            Intent::Information => Intent::Action,
        }
    }
}

impl fmt::Display for Intent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intent::Action => write!(f, "action"),
            Intent::Information => write!(f, "information"),
        }
    }
}

impl FromStr for Intent {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "action" => Ok(Intent::Action),
            "information" | "info" => Ok(Intent::Information),
            _ => Err(ParseError::new(
                "intent",
                s,
                "expected 'action' or 'information'",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for i in [Intent::Action, Intent::Information] {
            assert_eq!(i.to_string().parse::<Intent>().unwrap(), i);
        }
        assert_eq!("info".parse::<Intent>().unwrap(), Intent::Information);
        assert!("other".parse::<Intent>().is_err());
    }

    #[test]
    fn opposite_is_involution() {
        for i in [Intent::Action, Intent::Information] {
            assert_eq!(i.opposite().opposite(), i);
            assert_ne!(i.opposite(), i);
        }
    }

    #[test]
    fn serde_lowercase() {
        assert_eq!(
            serde_json::to_string(&Intent::Action).unwrap(),
            "\"action\""
        );
        assert_eq!(
            serde_json::from_str::<Intent>("\"information\"").unwrap(),
            Intent::Information
        );
    }

    #[test]
    fn action_orders_first_and_unknown_names_are_refused_verbatim() {
        assert!(Intent::Action < Intent::Information);
        let err = "Action".parse::<Intent>().unwrap_err();
        assert_eq!(err.what, "intent");
        assert_eq!(err.input, "Action", "parsing is case-sensitive");
        assert_eq!(
            err.to_string(),
            "invalid intent \"Action\": expected 'action' or 'information'"
        );
        assert!(serde_json::from_str::<Intent>("\"info\"").is_err());
    }
}
