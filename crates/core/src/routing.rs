//! Runtime FM construction from the config: the paper's fixed
//! GPT-4/GPT-3.5 pairing, a single-model override, or a cascade ladder —
//! plus the snapshot-delta bookkeeping that bridges a cascade's
//! per-backend routing stats into the observability report.

use smartfeat_fm::{CascadeFm, FoundationModel, RouteStat, RoutingSnapshot, SimulatedFm};

use crate::config::SmartFeatConfig;

/// Build the `(selector, generator)` FM pair the config asks for. The
/// two roles get distinct seeds (`seed` / `seed + 1`), matching the
/// seeding the default pairing has always used.
///
/// Total over every config: an enabled cascade with an empty ladder,
/// which [`SmartFeatConfig::validate`] rejects, gets the non-cascade
/// pairing instead of a panic, and [`crate::SmartFeat::run`] then refuses
/// the config with `InvalidConfig` before the first FM call.
pub fn build_role_fms(
    config: &SmartFeatConfig,
) -> (Box<dyn FoundationModel>, Box<dyn FoundationModel>) {
    let seed = config.seed;
    if config.cascade.enabled && !config.cascade.ladder.is_empty() {
        (
            Box::new(CascadeFm::new(&config.cascade.ladder, seed)),
            Box::new(CascadeFm::new(&config.cascade.ladder, seed.wrapping_add(1))),
        )
    } else if let Some(kind) = config.backend {
        (
            Box::new(kind.fm(seed)),
            Box::new(kind.fm(seed.wrapping_add(1))),
        )
    } else {
        (
            Box::new(SimulatedFm::gpt4(seed)),
            Box::new(SimulatedFm::gpt35(seed.wrapping_add(1))),
        )
    }
}

/// Per-backend delta between two routing snapshots of one FM handle.
/// `None` (a non-routing model) on either side yields an empty map.
pub(crate) fn routing_delta(
    before: &Option<RoutingSnapshot>,
    after: &Option<RoutingSnapshot>,
) -> RoutingSnapshot {
    let Some(after) = after else {
        return RoutingSnapshot::new();
    };
    let zero = RouteStat::default();
    let mut out = RoutingSnapshot::new();
    for (name, stat) in after {
        let earlier = before.as_ref().and_then(|b| b.get(name)).unwrap_or(&zero);
        let d = stat.delta(earlier);
        if !d.is_empty() {
            out.insert(name.clone(), d);
        }
    }
    out
}

/// Merge the two roles' routing deltas into one per-backend map.
pub(crate) fn merge_routing(mut a: RoutingSnapshot, b: RoutingSnapshot) -> RoutingSnapshot {
    for (name, stat) in b {
        a.entry(name).or_default().add(&stat);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_fm::BackendKind;

    use crate::config::CascadeConfig;

    #[test]
    fn default_config_builds_the_paper_pairing() {
        let (sel, gen) = build_role_fms(&SmartFeatConfig::default());
        assert_eq!(sel.model_name(), "gpt-4");
        assert_eq!(gen.model_name(), "gpt-3.5-turbo");
        assert!(sel.routing().is_none());
    }

    #[test]
    fn backend_override_serves_both_roles() {
        let config = SmartFeatConfig {
            backend: Some(BackendKind::Babbage002),
            ..SmartFeatConfig::default()
        };
        let (sel, gen) = build_role_fms(&config);
        assert_eq!(sel.model_name(), "babbage-002");
        assert_eq!(gen.model_name(), "babbage-002");
    }

    #[test]
    fn cascade_config_builds_routers() {
        let config = SmartFeatConfig {
            cascade: CascadeConfig {
                enabled: true,
                ..CascadeConfig::default()
            },
            ..SmartFeatConfig::default()
        };
        let (sel, _gen) = build_role_fms(&config);
        assert_eq!(
            sel.model_name(),
            "cascade(babbage-002->gpt-3.5-turbo->gpt-4)"
        );
        assert!(sel.routing().is_some());
    }

    #[test]
    fn routing_delta_subtracts_and_drops_empty_entries() {
        let mut before = RoutingSnapshot::new();
        before.insert(
            "gpt-4".into(),
            RouteStat {
                calls: 2,
                ..RouteStat::default()
            },
        );
        before.insert(
            "babbage-002".into(),
            RouteStat {
                calls: 5,
                escalations: 1,
                ..RouteStat::default()
            },
        );
        let mut after = before.clone();
        after.get_mut("babbage-002").unwrap().calls = 7;
        let d = routing_delta(&Some(before), &Some(after));
        assert_eq!(d.len(), 1, "unchanged gpt-4 entry dropped: {d:?}");
        assert_eq!(d["babbage-002"].calls, 2);
        assert_eq!(d["babbage-002"].escalations, 0);
        assert!(routing_delta(&None, &None).is_empty());
    }

    #[test]
    fn merge_routing_sums_per_backend() {
        let mut a = RoutingSnapshot::new();
        a.insert(
            "gpt-4".into(),
            RouteStat {
                calls: 1,
                ..RouteStat::default()
            },
        );
        let mut b = RoutingSnapshot::new();
        b.insert(
            "gpt-4".into(),
            RouteStat {
                calls: 2,
                ..RouteStat::default()
            },
        );
        b.insert(
            "babbage-002".into(),
            RouteStat {
                calls: 4,
                ..RouteStat::default()
            },
        );
        let m = merge_routing(a, b);
        assert_eq!(m["gpt-4"].calls, 3);
        assert_eq!(m["babbage-002"].calls, 4);
    }
}
