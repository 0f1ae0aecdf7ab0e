//! The probe tag vocabulary and tag filtering.
//!
//! RIPE Atlas probes carry *system tags* (set automatically: firmware,
//! address family, anchor status) and *user tags* (set by the host:
//! access technology, site type). The paper uses tags twice:
//!
//! * §4.1: "We filter out all the probes that are clearly installed in
//!   privileged locations (e.g., datacenters, cloud network)";
//! * §4.3: "We leverage RIPE Atlas user-provided tags to filter probes
//!   which indicate the type of access link, e.g. ethernet, broadband
//!   for wired and lte, wifi, wlan for … wireless links".
//!
//! [`TagFilter`] reproduces the include/exclude semantics of the Atlas
//! probe-selection API.

use std::collections::BTreeSet;

/// Tags marking probes hosted in privileged network locations.
pub const PRIVILEGED_TAGS: &[&str] = &["datacentre", "cloud", "ixp", "anchor"];

/// User tags that indicate a wired last mile.
pub const WIRED_TAGS: &[&str] = &["ethernet", "fibre", "cable", "dsl", "broadband", "wired"];

/// User tags that indicate a wireless last mile.
pub const WIRELESS_TAGS: &[&str] = &["wifi", "wlan", "lte", "5g", "satellite", "wireless"];

/// System tags every synthesised probe carries.
pub const SYSTEM_TAGS: &[&str] = &["system-ipv4-works", "system-resolves-a-correctly"];

/// An include/exclude tag filter, mirroring the Atlas API's
/// `tags=` / `tags=!` probe-selection parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagFilter {
    include: BTreeSet<String>,
    exclude: BTreeSet<String>,
}

impl TagFilter {
    /// A filter matching everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Requires the given tag to be present.
    pub fn require(mut self, tag: &str) -> Self {
        self.include.insert(tag.to_string());
        self
    }

    /// Requires any of the given tags (via [`TagFilter::matches_any`]
    /// semantics this is a union filter — Atlas treats multiple include
    /// tags as a conjunction, so we model the disjunction explicitly).
    pub fn require_all(mut self, tags: &[&str]) -> Self {
        for t in tags {
            self.include.insert((*t).to_string());
        }
        self
    }

    /// Excludes probes carrying the given tag.
    pub fn reject(mut self, tag: &str) -> Self {
        self.exclude.insert(tag.to_string());
        self
    }

    /// Excludes probes carrying any of the given tags.
    pub fn reject_all(mut self, tags: &[&str]) -> Self {
        for t in tags {
            self.exclude.insert((*t).to_string());
        }
        self
    }

    /// Conjunction match: every included tag present, no excluded tag
    /// present. (Atlas `tags=a,b` semantics.)
    pub fn matches(&self, probe_tags: &[String]) -> bool {
        self.include
            .iter()
            .all(|t| probe_tags.iter().any(|p| p == t))
            && !self
                .exclude
                .iter()
                .any(|t| probe_tags.iter().any(|p| p == t))
    }

    /// Disjunction match over the include set (any included tag present)
    /// plus the exclude check. Used for "any wireless tag" selections.
    pub fn matches_any(&self, probe_tags: &[String]) -> bool {
        (self.include.is_empty()
            || self
                .include
                .iter()
                .any(|t| probe_tags.iter().any(|p| p == t)))
            && !self
                .exclude
                .iter()
                .any(|t| probe_tags.iter().any(|p| p == t))
    }

    /// The paper's privileged-location exclusion filter.
    pub fn unprivileged() -> Self {
        Self::any().reject_all(PRIVILEGED_TAGS)
    }

    /// The paper's wired-probe selection (any wired tag, no privileged
    /// or wireless tag). Use with [`TagFilter::matches_any`].
    pub fn wired() -> Self {
        Self::any()
            .require_all(WIRED_TAGS)
            .reject_all(PRIVILEGED_TAGS)
            .reject_all(WIRELESS_TAGS)
    }

    /// The paper's wireless-probe selection. Use with
    /// [`TagFilter::matches_any`].
    pub fn wireless() -> Self {
        Self::any()
            .require_all(WIRELESS_TAGS)
            .reject_all(PRIVILEGED_TAGS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = TagFilter::any();
        assert!(f.matches(&tags(&["ethernet"])));
        assert!(f.matches(&[]));
        assert!(f.matches_any(&[]));
    }

    #[test]
    fn include_is_conjunction_in_matches() {
        let f = TagFilter::any().require("a").require("b");
        assert!(f.matches(&tags(&["a", "b", "c"])));
        assert!(!f.matches(&tags(&["a"])));
    }

    #[test]
    fn include_is_disjunction_in_matches_any() {
        let f = TagFilter::any().require("a").require("b");
        assert!(f.matches_any(&tags(&["a"])));
        assert!(f.matches_any(&tags(&["b"])));
        assert!(!f.matches_any(&tags(&["c"])));
    }

    #[test]
    fn exclude_wins() {
        let f = TagFilter::any().require("wifi").reject("datacentre");
        assert!(!f.matches(&tags(&["wifi", "datacentre"])));
        assert!(!f.matches_any(&tags(&["wifi", "datacentre"])));
    }

    #[test]
    fn unprivileged_rejects_datacenter_probes() {
        let f = TagFilter::unprivileged();
        assert!(!f.matches(&tags(&["ethernet", "datacentre"])));
        assert!(f.matches(&tags(&["ethernet", "home"])));
    }

    #[test]
    fn wired_wireless_are_disjoint() {
        let wired = TagFilter::wired();
        let wireless = TagFilter::wireless();
        let wired_probe = tags(&["ethernet", "home", "system-ipv4-works"]);
        let wifi_probe = tags(&["wifi", "home"]);
        // A probe tagged both (wired uplink, wifi hop) counts as wireless
        // only — matching the paper's conservative classification.
        let both = tags(&["ethernet", "wifi"]);
        assert!(wired.matches_any(&wired_probe));
        assert!(!wired.matches_any(&wifi_probe));
        assert!(wireless.matches_any(&wifi_probe));
        assert!(!wireless.matches_any(&wired_probe));
        assert!(!wired.matches_any(&both));
        assert!(wireless.matches_any(&both));
    }

    #[test]
    fn vocabulary_is_disjoint() {
        for w in WIRED_TAGS {
            assert!(!WIRELESS_TAGS.contains(w), "{w} in both sets");
            assert!(!PRIVILEGED_TAGS.contains(w));
        }
    }
}
