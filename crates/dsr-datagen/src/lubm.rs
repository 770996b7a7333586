//! LUBM-like sparse RDF-graph analogue.
//!
//! The LUBM benchmark graph used in the paper (Table 1: LUBM-500M/1B) is an
//! organization hierarchy: universities contain departments, departments
//! contain research groups, people work for departments and co-author
//! publications. The resulting reachability structure is sparse and almost
//! acyclic ("Most of the RDF-based LUBM graph is acyclic and sparsely
//! connected", Section 4.2), which makes SCC condensation nearly a no-op —
//! the opposite extreme from the Twitter analogue. This generator
//! reproduces that shape.

use dsr_graph::{DiGraph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Entity categories of the LUBM-like graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LubmEntity {
    /// A university (hierarchy root).
    University,
    /// A department (subOrganizationOf a university).
    Department,
    /// A research group (subOrganizationOf a department).
    ResearchGroup,
    /// A professor (headOf / worksFor a department).
    Professor,
    /// A student (memberOf a department, advised by a professor).
    Student,
    /// A publication (authored by professors/students).
    Publication,
}

/// A generated LUBM-like graph with entity-type metadata.
#[derive(Debug, Clone)]
pub struct LubmGraph {
    /// The underlying directed graph (edges point "up" the organization
    /// hierarchy / from authors to publications).
    pub graph: DiGraph,
    /// Entity type of every vertex.
    pub entity: Vec<LubmEntity>,
    /// Vertices per type, in generation order.
    pub universities: Vec<VertexId>,
    /// Department vertices.
    pub departments: Vec<VertexId>,
    /// Research-group vertices.
    pub research_groups: Vec<VertexId>,
    /// Professor vertices.
    pub professors: Vec<VertexId>,
    /// Student vertices.
    pub students: Vec<VertexId>,
}

/// Generates a LUBM-like graph with the given number of universities.
///
/// Each university gets 3–8 departments; each department gets 2–5 research
/// groups, 3–7 professors and 10–30 students. The result is sparse
/// (average degree around 1.5) and mostly acyclic, matching the paper's
/// description of the LUBM data.
pub fn lubm_like(num_universities: usize, seed: u64) -> LubmGraph {
    assert!(num_universities > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new();
    let mut entity = Vec::new();
    let mut universities = Vec::new();
    let mut departments = Vec::new();
    let mut research_groups = Vec::new();
    let mut professors = Vec::new();
    let mut students = Vec::new();

    let new_vertex = |builder: &mut GraphBuilder, entity: &mut Vec<LubmEntity>, kind| {
        let v = entity.len() as VertexId;
        builder.ensure_vertex(v);
        entity.push(kind);
        v
    };

    for _ in 0..num_universities {
        let uni = new_vertex(&mut builder, &mut entity, LubmEntity::University);
        universities.push(uni);
        let n_dep = rng.gen_range(3..=8);
        for _ in 0..n_dep {
            let dep = new_vertex(&mut builder, &mut entity, LubmEntity::Department);
            departments.push(dep);
            // subOrganizationOf
            builder.add_edge(dep, uni);
            let n_rg = rng.gen_range(2..=5);
            for _ in 0..n_rg {
                let rg = new_vertex(&mut builder, &mut entity, LubmEntity::ResearchGroup);
                research_groups.push(rg);
                builder.add_edge(rg, dep);
            }
            let n_prof = rng.gen_range(3..=7);
            let mut dept_profs = Vec::new();
            for _ in 0..n_prof {
                let prof = new_vertex(&mut builder, &mut entity, LubmEntity::Professor);
                professors.push(prof);
                dept_profs.push(prof);
                // worksFor
                builder.add_edge(prof, dep);
            }
            let n_stud = rng.gen_range(10..=30);
            for _ in 0..n_stud {
                let stud = new_vertex(&mut builder, &mut entity, LubmEntity::Student);
                students.push(stud);
                // memberOf
                builder.add_edge(stud, dep);
                // advisor
                let advisor = dept_profs[rng.gen_range(0..dept_profs.len())];
                builder.add_edge(stud, advisor);
            }
            // publications authored by professors and students
            let n_pub = rng.gen_range(5..=15);
            for _ in 0..n_pub {
                let publ = new_vertex(&mut builder, &mut entity, LubmEntity::Publication);
                let author = dept_profs[rng.gen_range(0..dept_profs.len())];
                builder.add_edge(author, publ);
            }
        }
    }

    LubmGraph {
        graph: builder.build(),
        entity,
        universities,
        departments,
        research_groups,
        professors,
        students,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::tarjan_scc;

    /// All vertices of a given entity type.
    fn of_type(lubm: &LubmGraph, kind: LubmEntity) -> Vec<VertexId> {
        lubm.entity
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e == kind)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    #[test]
    fn structure_is_sparse_and_acyclic() {
        let lubm = lubm_like(10, 1);
        let g = &lubm.graph;
        assert!(g.num_vertices() > 500);
        let scc = tarjan_scc(g);
        assert_eq!(
            scc.num_components,
            g.num_vertices(),
            "LUBM analogue must be acyclic"
        );
        let avg_degree = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            avg_degree < 2.5,
            "LUBM analogue must be sparse, got {avg_degree}"
        );
    }

    #[test]
    fn hierarchy_reaches_university() {
        let lubm = lubm_like(3, 2);
        // every research group reaches some university through
        // subOrganizationOf*
        for &rg in &lubm.research_groups {
            let reached = lubm
                .universities
                .iter()
                .any(|&u| dsr_graph::is_reachable(&lubm.graph, rg, u));
            assert!(reached, "research group {rg} cannot reach a university");
        }
    }

    #[test]
    fn type_lookup_matches_lists() {
        let lubm = lubm_like(2, 3);
        assert_eq!(of_type(&lubm, LubmEntity::University), lubm.universities);
        assert_eq!(of_type(&lubm, LubmEntity::Professor), lubm.professors);
        assert_eq!(lubm.entity.len(), lubm.graph.num_vertices());
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            lubm_like(4, 9).graph.edge_vec(),
            lubm_like(4, 9).graph.edge_vec()
        );
    }
}
