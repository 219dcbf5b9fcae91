//! Task placement plans (§6.1 \[I\]).
//!
//! RAGO's placement rule (Figure 13): the main LLM's prefix and decode stay
//! disaggregated, retrieval always runs on CPU servers, and any run of
//! *neighbouring* XPU stages up to and including the prefix may be collocated
//! on one accelerator group. A placement plan is therefore a partition of the
//! pre-decode XPU stages into contiguous groups.

use crate::error::RagoError;
use rago_schema::{RagSchema, Stage};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A task placement plan: contiguous groups of collocated pre-decode XPU
/// stages (in pipeline order). The decode stage always forms its own
/// (disaggregated) partition and retrieval always runs on the CPU pool, so
/// neither appears in the groups.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Collocation groups over the pre-decode XPU stages, in pipeline order.
    pub predecode_groups: Vec<Vec<Stage>>,
}

impl PlacementPlan {
    /// The pre-decode XPU stages of a workload, in pipeline order (i.e. the
    /// stages eligible for collocation).
    pub fn collocatable_stages(schema: &RagSchema) -> Vec<Stage> {
        schema
            .pipeline()
            .into_iter()
            .filter(|s| s.collocatable())
            .collect()
    }

    /// The fully disaggregated plan: every pre-decode XPU stage gets its own
    /// accelerator group.
    pub fn fully_disaggregated(schema: &RagSchema) -> Self {
        Self {
            predecode_groups: Self::collocatable_stages(schema)
                .into_iter()
                .map(|s| vec![s])
                .collect(),
        }
    }

    /// The fully collocated plan: all pre-decode XPU stages share one group
    /// (this is the shape of the paper's LLM-extension baseline, which
    /// collocates everything with the prefix).
    pub fn fully_collocated(schema: &RagSchema) -> Self {
        Self {
            predecode_groups: vec![Self::collocatable_stages(schema)],
        }
    }

    /// Enumerates every placement plan permitted by the collocation rule: all
    /// partitions of the pre-decode stage list into contiguous groups
    /// (`2^(k-1)` plans for `k` stages).
    pub fn enumerate(schema: &RagSchema) -> Vec<Self> {
        let stages = Self::collocatable_stages(schema);
        if stages.is_empty() {
            return vec![Self {
                predecode_groups: Vec::new(),
            }];
        }
        let k = stages.len();
        let mut plans = Vec::with_capacity(1 << (k - 1));
        // Each bit of `mask` decides whether there is a split after stage i.
        for mask in 0u32..(1 << (k - 1)) {
            let mut groups: Vec<Vec<Stage>> = Vec::new();
            let mut current = vec![stages[0]];
            for (i, &stage) in stages.iter().enumerate().skip(1) {
                if mask & (1 << (i - 1)) != 0 {
                    groups.push(std::mem::take(&mut current));
                }
                current.push(stage);
            }
            groups.push(current);
            plans.push(Self {
                predecode_groups: groups,
            });
        }
        plans
    }

    /// Checks that the plan places every collocatable stage of `schema`
    /// exactly once, in pipeline order, with no empty group: the plans
    /// [`Self::enumerate`] yields. Evaluation and the searches call it, so a
    /// stage the plan leaves out cannot be priced at zero.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] naming the plan and the stages
    /// it must place.
    pub fn validate(&self, schema: &RagSchema) -> Result<(), RagoError> {
        let stages = Self::collocatable_stages(schema);
        let placed = self.predecode_groups.iter().flatten();
        if self.predecode_groups.iter().any(Vec::is_empty) || !placed.eq(stages.iter()) {
            let names: Vec<String> = stages.iter().map(|s| format!("`{s}`")).collect();
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "placement {} must place the stages {} of `{}` once each, in \
                     pipeline order, in non-empty groups",
                    self.describe(),
                    names.join(", "),
                    schema.name
                ),
            });
        }
        Ok(())
    }

    /// Number of accelerator groups serving the pre-decode stages.
    pub fn num_groups(&self) -> usize {
        self.predecode_groups.len()
    }

    /// Whether any group collocates more than one stage.
    pub fn has_collocation(&self) -> bool {
        self.predecode_groups.iter().any(|g| g.len() > 1)
    }

    /// The index of the group containing `stage`, if any.
    pub fn group_of(&self, stage: Stage) -> Option<usize> {
        self.predecode_groups
            .iter()
            .position(|g| g.contains(&stage))
    }

    /// A short human-readable description, e.g. `"[rewrite-prefix+rewrite-decode][rerank+prefix]"`:
    /// the plan's [`Display`](fmt::Display) text.
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for PlacementPlan {
    /// Each group's stages joined by `+` in brackets, or `[prefix-only]`
    /// for a plan without groups.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predecode_groups.is_empty() {
            return f.write_str("[prefix-only]");
        }
        for group in &self.predecode_groups {
            f.write_str("[")?;
            for (i, stage) in group.iter().enumerate() {
                if i > 0 {
                    f.write_str("+")?;
                }
                f.write_str(stage.short_name())?;
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_schema::presets::{self, LlmSize};

    #[test]
    fn case1_has_single_collocatable_stage() {
        let schema = presets::case1_hyperscale(LlmSize::B8, 1);
        let stages = PlacementPlan::collocatable_stages(&schema);
        assert_eq!(stages, vec![Stage::Prefix]);
        let plans = PlacementPlan::enumerate(&schema);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].num_groups(), 1);
        assert!(!plans[0].has_collocation());
    }

    #[test]
    fn case4_enumerates_eight_plans() {
        // Case IV has four pre-decode XPU stages (rewrite-prefix,
        // rewrite-decode, rerank, prefix) → 2^3 = 8 contiguous partitions.
        let schema = presets::case4_rewriter_reranker(LlmSize::B70);
        let plans = PlacementPlan::enumerate(&schema);
        assert_eq!(plans.len(), 8);
        assert!(plans.contains(&PlacementPlan::fully_disaggregated(&schema)));
        assert!(plans.contains(&PlacementPlan::fully_collocated(&schema)));
        // Every plan covers exactly the four stages, contiguously and in order.
        for plan in &plans {
            let flat: Vec<Stage> = plan.predecode_groups.iter().flatten().copied().collect();
            assert_eq!(
                flat,
                vec![
                    Stage::RewritePrefix,
                    Stage::RewriteDecode,
                    Stage::Rerank,
                    Stage::Prefix
                ]
            );
        }
    }

    #[test]
    fn case2_has_encoder_and_prefix() {
        let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);
        let plans = PlacementPlan::enumerate(&schema);
        assert_eq!(plans.len(), 2); // {encode+prefix} or {encode}{prefix}
        let collocated = PlacementPlan::fully_collocated(&schema);
        assert_eq!(collocated.num_groups(), 1);
        assert!(collocated.has_collocation());
        assert_eq!(collocated.group_of(Stage::DatabaseEncode), Some(0));
        assert_eq!(collocated.group_of(Stage::Decode), None);
    }

    #[test]
    fn describe_is_readable() {
        let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);
        let plan = PlacementPlan::fully_disaggregated(&schema);
        assert_eq!(plan.describe(), "[encode][prefix]");
        let plan = PlacementPlan::fully_collocated(&schema);
        assert_eq!(plan.describe(), "[encode+prefix]");
    }

    #[test]
    fn validate_accepts_exactly_the_enumerated_shapes() {
        let schema = presets::case4_rewriter_reranker(LlmSize::B8);
        for plan in PlacementPlan::enumerate(&schema) {
            assert!(plan.validate(&schema).is_ok(), "{}", plan.describe());
        }
        use Stage::{Prefix, Rerank, RewriteDecode, RewritePrefix};
        for groups in [
            // A stage left out.
            vec![vec![Prefix]],
            vec![vec![RewritePrefix, RewriteDecode], vec![Prefix]],
            // A stage placed twice.
            vec![
                vec![RewritePrefix, RewriteDecode, Rerank, Prefix],
                vec![Prefix],
            ],
            // Out of pipeline order.
            vec![vec![RewritePrefix, Rerank, RewriteDecode, Prefix]],
            vec![vec![Prefix], vec![RewritePrefix, RewriteDecode, Rerank]],
            // An empty group.
            vec![vec![RewritePrefix, RewriteDecode, Rerank, Prefix], vec![]],
            // No group at all.
            vec![],
        ] {
            let plan = PlacementPlan {
                predecode_groups: groups,
            };
            assert!(
                matches!(plan.validate(&schema), Err(RagoError::InvalidConfig { .. })),
                "{} should be rejected",
                plan.describe()
            );
        }
    }

    #[test]
    fn llm_only_has_prefix_group_only() {
        let schema = presets::llm_only(LlmSize::B8);
        let plans = PlacementPlan::enumerate(&schema);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].describe(), "[prefix]");
    }
}
