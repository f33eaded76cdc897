//! Dynamic R-Tree operations: insert, delete, update.

use super::{Node, RTree, SplitStrategy, NIL};
use simspatial_geom::{stats, Aabb, ElementId};

impl RTree {
    /// Inserts an entry. O(log n) expected; splits propagate upward on
    /// overflow per the configured [`SplitStrategy`].
    pub fn insert(&mut self, id: ElementId, bbox: Aabb) {
        self.insert_entry(id, bbox, true);
        self.bump_len(1);
    }

    /// Inserts without the once-per-operation reinsert budget (used when
    /// re-adding entries evicted by a forced reinsert or a condense).
    fn insert_entry(&mut self, id: ElementId, bbox: Aabb, allow_reinsert: bool) {
        let leaf = self.choose_leaf(bbox);
        self.nodes[leaf].entries.push(bbox, id);
        self.nodes[leaf].mbr = self.nodes[leaf].mbr.union(&bbox);
        self.handle_overflow_chain(leaf, allow_reinsert);
    }

    /// Descends from the root choosing the child needing least enlargement
    /// (ties: smaller volume), Guttman's `ChooseLeaf`.
    fn choose_leaf(&self, bbox: Aabb) -> usize {
        let mut idx = self.root;
        while !self.nodes[idx].is_leaf() {
            stats::record_node_visit();
            let mut best = NIL;
            let mut best_enlargement = f32::INFINITY;
            let mut best_volume = f32::INFINITY;
            for &c in &self.nodes[idx].children {
                let mbr = self.nodes[c].mbr;
                let enlargement = mbr.enlargement(&bbox);
                let volume = mbr.volume();
                if enlargement < best_enlargement
                    || (enlargement == best_enlargement && volume < best_volume)
                {
                    best = c;
                    best_enlargement = enlargement;
                    best_volume = volume;
                }
            }
            idx = best;
        }
        idx
    }

    /// Walks from `start` to the root, fixing MBRs and resolving overflows.
    fn handle_overflow_chain(&mut self, start: usize, allow_reinsert: bool) {
        let mut idx = start;
        let mut reinsert_budget = allow_reinsert;
        loop {
            if self.nodes[idx].count() > self.config().max_entries {
                if reinsert_budget
                    && self.config().split == SplitStrategy::RStarReinsert
                    && self.nodes[idx].is_leaf()
                {
                    reinsert_budget = false;
                    self.forced_reinsert(idx);
                } else {
                    self.split_node(idx);
                }
            }
            let parent = self.nodes[idx].parent;
            if parent == NIL {
                break;
            }
            self.recompute_mbr(parent);
            idx = parent;
        }
    }

    /// R\*-style forced reinsert: evict the `reinsert_fraction` of entries
    /// whose centres lie farthest from the node centre and re-add them.
    fn forced_reinsert(&mut self, leaf: usize) {
        let count = self.nodes[leaf].entries.len();
        let evict = ((count as f32 * self.config().reinsert_fraction) as usize).max(1);
        let center = self.nodes[leaf].mbr.center();
        self.nodes[leaf]
            .entries
            .sort_by_key(|b| b.center().distance2(&center));
        let evicted = self.nodes[leaf].entries.split_off(count - evict);
        self.recompute_mbr(leaf);
        // Fix ancestor MBRs before reinserting so ChooseLeaf sees a
        // consistent tree.
        let mut p = self.nodes[leaf].parent;
        while p != NIL {
            self.recompute_mbr(p);
            p = self.nodes[p].parent;
        }
        for (bbox, id) in evicted.iter() {
            self.insert_entry(id, bbox, false);
        }
    }

    /// Splits an overfull node in two (quadratic partition); grows a new
    /// root when the split reaches the top.
    pub(crate) fn split_node(&mut self, idx: usize) {
        let level = self.nodes[idx].level;
        let min = self.config().min_entries;

        let (sibling_node, sibling_mbr) = if self.nodes[idx].is_leaf() {
            let items = std::mem::take(&mut self.nodes[idx].entries);
            let boxes: Vec<Aabb> = items.iter().map(|(b, _)| b).collect();
            let (_, give) = quadratic_partition(&boxes, min);
            let (kept, given) = items.partition_by_indices(&give);
            self.nodes[idx].entries = kept;
            self.recompute_mbr(idx);
            let mut sib = Node::new_leaf();
            sib.mbr = given.union_all();
            sib.entries = given;
            let mbr = sib.mbr;
            (sib, mbr)
        } else {
            let items = std::mem::take(&mut self.nodes[idx].children);
            let boxes: Vec<Aabb> = items.iter().map(|&c| self.nodes[c].mbr).collect();
            let (keep, give) = quadratic_partition(&boxes, min);
            let mut kept = Vec::with_capacity(keep.len());
            let mut given = Vec::with_capacity(give.len());
            for (i, item) in items.into_iter().enumerate() {
                if keep.contains(&i) {
                    kept.push(item);
                } else {
                    given.push(item);
                }
            }
            self.nodes[idx].children = kept;
            self.recompute_mbr(idx);
            let mut sib = Node::new_internal(level);
            sib.mbr = Aabb::union_all(given.iter().map(|&c| self.nodes[c].mbr));
            sib.children = given;
            let mbr = sib.mbr;
            (sib, mbr)
        };

        let sibling = self.alloc(sibling_node);
        if !self.nodes[sibling].children.is_empty() {
            let children = self.nodes[sibling].children.clone();
            for c in children {
                self.nodes[c].parent = sibling;
            }
        }

        let parent = self.nodes[idx].parent;
        if parent == NIL {
            // Grow a new root above idx and its sibling.
            let mut root = Node::new_internal(level + 1);
            root.children = vec![idx, sibling];
            root.mbr = self.nodes[idx].mbr.union(&sibling_mbr);
            let root_idx = self.alloc(root);
            self.nodes[idx].parent = root_idx;
            self.nodes[sibling].parent = root_idx;
            self.root = root_idx;
        } else {
            self.nodes[sibling].parent = parent;
            self.nodes[parent].children.push(sibling);
            // Parent overflow is handled by the caller's upward walk.
        }
    }

    /// Removes the entry `(id)` whose stored box equals `bbox`. Returns
    /// `true` if found. The caller must pass the box the entry was inserted
    /// (or last updated) with — the R-Tree cannot locate an entry whose key
    /// silently changed, which is precisely the §4 update problem.
    pub fn delete(&mut self, id: ElementId, bbox: &Aabb) -> bool {
        let Some(leaf) = self.find_leaf(self.root, id, bbox) else {
            return false;
        };
        let pos = self.nodes[leaf]
            .entries
            .position_of(id, bbox)
            .expect("find_leaf returned a leaf without the entry");
        self.nodes[leaf].entries.swap_remove(pos);
        self.bump_len(-1);
        self.condense(leaf);
        true
    }

    /// DFS for the leaf holding `(id, bbox)`.
    fn find_leaf(&self, idx: usize, id: ElementId, bbox: &Aabb) -> Option<usize> {
        let n = &self.nodes[idx];
        if !n.mbr.contains(bbox) && !n.mbr.intersects(bbox) {
            return None;
        }
        if n.is_leaf() {
            if n.entries.position_of(id, bbox).is_some() {
                return Some(idx);
            }
            return None;
        }
        stats::record_node_visit();
        for &c in &n.children {
            if self.nodes[c].mbr.contains(bbox) {
                if let Some(found) = self.find_leaf(c, id, bbox) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Guttman's `CondenseTree`: walk to the root removing underfull nodes,
    /// then reinsert their orphaned entries.
    fn condense(&mut self, leaf: usize) {
        let min = self.config().min_entries;
        let mut orphans: Vec<(Aabb, ElementId)> = Vec::new();
        let mut idx = leaf;
        while idx != self.root {
            let parent = self.nodes[idx].parent;
            if self.nodes[idx].count() < min {
                // Detach idx from parent and harvest its leaf entries.
                let pos = self.nodes[parent]
                    .children
                    .iter()
                    .position(|&c| c == idx)
                    .expect("parent/child link broken");
                self.nodes[parent].children.swap_remove(pos);
                self.harvest_entries(idx, &mut orphans);
            } else {
                self.recompute_mbr(idx);
            }
            idx = parent;
        }
        self.recompute_mbr(self.root);

        // Shrink the root while it is an internal node with one child.
        while !self.nodes[self.root].is_leaf() && self.nodes[self.root].children.len() == 1 {
            let child = self.nodes[self.root].children[0];
            let old_root = self.root;
            self.nodes[child].parent = NIL;
            self.root = child;
            self.release(old_root);
        }
        // An internal root that lost all children collapses to an empty leaf.
        if !self.nodes[self.root].is_leaf() && self.nodes[self.root].children.is_empty() {
            let old_root = self.root;
            let leaf = self.alloc(Node::new_leaf());
            self.root = leaf;
            self.release(old_root);
        }

        for (bbox, id) in orphans {
            self.insert_entry(id, bbox, false);
        }
    }

    /// Collects every leaf entry under `idx` and releases the subtree.
    fn harvest_entries(&mut self, idx: usize, out: &mut Vec<(Aabb, ElementId)>) {
        if self.nodes[idx].is_leaf() {
            out.extend(self.nodes[idx].entries.iter());
        } else {
            let children = std::mem::take(&mut self.nodes[idx].children);
            for c in children {
                self.harvest_entries(c, out);
            }
        }
        self.release(idx);
    }

    /// Moves entry `id` from `old_bbox` to `new_bbox` the expensive way:
    /// delete + reinsert. This is the paper's measured 130 s/step strategy.
    ///
    /// Returns `false` (and inserts nothing) when the old entry was absent.
    pub fn update(&mut self, id: ElementId, old_bbox: &Aabb, new_bbox: Aabb) -> bool {
        if !self.delete(id, old_bbox) {
            return false;
        }
        self.insert(id, new_bbox);
        true
    }

    /// Bottom-up update \[26\]: when the new box still lies inside the leaf's
    /// MBR the entry is patched in place (no tree surgery); otherwise falls
    /// back to delete + reinsert. Returns `false` when the entry was absent.
    pub fn update_bottom_up(&mut self, id: ElementId, old_bbox: &Aabb, new_bbox: Aabb) -> bool {
        let Some(leaf) = self.find_leaf(self.root, id, old_bbox) else {
            return false;
        };
        if self.nodes[leaf].mbr.contains(&new_bbox) {
            let pos = self.nodes[leaf]
                .entries
                .position_of(id, old_bbox)
                .expect("find_leaf returned a leaf without the entry");
            self.nodes[leaf].entries.set_box(pos, new_bbox);
            // MBR may no longer be tight if the patched entry defined a
            // face; keep it tight so validate() holds.
            self.recompute_mbr(leaf);
            let mut p = self.nodes[leaf].parent;
            while p != NIL {
                self.recompute_mbr(p);
                p = self.nodes[p].parent;
            }
            true
        } else {
            self.update(id, old_bbox, new_bbox)
        }
    }
}

/// Guttman's quadratic partition over a set of boxes. Returns the index
/// sets of the two groups; each has at least `min` members.
fn quadratic_partition(boxes: &[Aabb], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    debug_assert!(n >= 2 * min, "cannot partition {n} items with min {min}");

    // PickSeeds: the pair wasting the most volume if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f32::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = boxes[i].union(&boxes[j]).volume() - boxes[i].volume() - boxes[j].volume();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = boxes[seed_a];
    let mut mbr_b = boxes[seed_b];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

    while !remaining.is_empty() {
        // If one group must absorb the rest to reach `min`, do so.
        if group_a.len() + remaining.len() == min {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min {
            group_b.append(&mut remaining);
            break;
        }
        // PickNext: the item with the greatest preference difference.
        let (mut pick, mut pick_pos, mut best_diff) = (remaining[0], 0, f32::NEG_INFINITY);
        for (pos, &i) in remaining.iter().enumerate() {
            let da = mbr_a.enlargement(&boxes[i]);
            let db = mbr_b.enlargement(&boxes[i]);
            let diff = (da - db).abs();
            if diff > best_diff {
                best_diff = diff;
                pick = i;
                pick_pos = pos;
            }
        }
        remaining.swap_remove(pick_pos);
        let da = mbr_a.enlargement(&boxes[pick]);
        let db = mbr_b.enlargement(&boxes[pick]);
        let to_a = da < db
            || (da == db && mbr_a.volume() < mbr_b.volume())
            || (da == db && mbr_a.volume() == mbr_b.volume() && group_a.len() <= group_b.len());
        if to_a {
            group_a.push(pick);
            mbr_a = mbr_a.union(&boxes[pick]);
        } else {
            group_b.push(pick);
            mbr_b = mbr_b.union(&boxes[pick]);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeConfig;
    use simspatial_geom::Point3;

    fn boxed(i: u32) -> Aabb {
        // Deterministic pseudo-random scatter.
        let h = i.wrapping_mul(2654435761);
        let x = (h % 1000) as f32 / 10.0;
        let y = ((h >> 10) % 1000) as f32 / 10.0;
        let z = ((h >> 20) % 1000) as f32 / 10.0;
        Aabb::new(Point3::new(x, y, z), Point3::new(x + 0.5, y + 0.5, z + 0.5))
    }

    #[test]
    fn insert_many_preserves_invariants() {
        let mut t = RTree::new(RTreeConfig::default());
        for i in 0..500u32 {
            t.insert(i, boxed(i));
            if i % 97 == 0 {
                t.validate();
            }
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3);
        t.validate();
    }

    #[test]
    fn rstar_reinsert_also_valid() {
        let mut t = RTree::new(RTreeConfig {
            split: SplitStrategy::RStarReinsert,
            ..Default::default()
        });
        for i in 0..500u32 {
            t.insert(i, boxed(i));
        }
        assert_eq!(t.len(), 500);
        t.validate();
    }

    #[test]
    fn delete_everything() {
        let mut t = RTree::new(RTreeConfig::default());
        for i in 0..300u32 {
            t.insert(i, boxed(i));
        }
        for i in 0..300u32 {
            assert!(t.delete(i, &boxed(i)), "entry {i} not found");
            if i % 53 == 0 {
                t.validate();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.validate();
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut t = RTree::new(RTreeConfig::default());
        t.insert(1, boxed(1));
        assert!(!t.delete(2, &boxed(2)));
        assert!(!t.delete(1, &boxed(3))); // right id, wrong box
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_moves_entry() {
        let mut t = RTree::new(RTreeConfig::default());
        for i in 0..100u32 {
            t.insert(i, boxed(i));
        }
        let new_box = Aabb::new(
            Point3::new(500.0, 500.0, 500.0),
            Point3::new(501.0, 501.0, 501.0),
        );
        assert!(t.update(7, &boxed(7), new_box));
        assert_eq!(t.len(), 100);
        t.validate();
        assert!(t.bounds().contains(&new_box));
        let hits = t.range_bbox(&new_box);
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn bottom_up_update_small_move() {
        let mut t = RTree::new(RTreeConfig::default());
        for i in 0..200u32 {
            t.insert(i, boxed(i));
        }
        // Tiny nudge: should hit the cheap path and stay valid.
        for i in 0..200u32 {
            let old = boxed(i);
            let new = old.translate(simspatial_geom::Vec3::new(0.01, 0.0, 0.0));
            assert!(t.update_bottom_up(i, &old, new));
        }
        assert_eq!(t.len(), 200);
        t.validate();
    }

    #[test]
    fn quadratic_partition_respects_min() {
        let boxes: Vec<Aabb> = (0..17).map(boxed).collect();
        let (a, b) = quadratic_partition(&boxes, 6);
        assert!(a.len() >= 6 && b.len() >= 6);
        assert_eq!(a.len() + b.len(), 17);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_boxes_supported() {
        // Simulation data frequently contains coincident elements.
        let mut t = RTree::new(RTreeConfig::default());
        let b = boxed(0);
        for i in 0..50u32 {
            t.insert(i, b);
        }
        assert_eq!(t.len(), 50);
        t.validate();
        assert_eq!(t.range_bbox(&b).len(), 50);
        for i in 0..50u32 {
            assert!(t.delete(i, &b));
        }
        assert!(t.is_empty());
    }
}
