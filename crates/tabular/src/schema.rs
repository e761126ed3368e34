//! Dataset schemas: attribute names and kinds.

use std::fmt;

/// The kind of an attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrKind {
    /// Categorical attribute with a dense code domain `0..cardinality`.
    Categorical {
        /// Number of distinct values in the domain.
        cardinality: u32,
    },
    /// Real-valued attribute.
    Numeric,
}

impl AttrKind {
    /// True if the attribute is categorical.
    #[inline]
    pub fn is_categorical(&self) -> bool {
        matches!(self, AttrKind::Categorical { .. })
    }
}

/// A named, typed attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Human-readable attribute name.
    pub name: String,
    /// Attribute kind.
    pub kind: AttrKind,
}

impl Attribute {
    /// Creates a categorical attribute with the given domain cardinality.
    pub fn categorical(name: impl Into<String>, cardinality: u32) -> Self {
        assert!(cardinality >= 1, "categorical domain must be non-empty");
        Attribute {
            name: name.into(),
            kind: AttrKind::Categorical { cardinality },
        }
    }

    /// Creates a numeric attribute.
    pub fn numeric(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Numeric,
        }
    }
}

/// An ordered collection of attributes describing every tuple of a dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from an attribute list.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        assert!(!attrs.is_empty(), "schema must have at least one attribute");
        Schema { attrs }
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if the schema has no attributes (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attribute at position `idx`.
    #[inline]
    pub fn attr(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }

    /// Iterator over all attributes in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &Attribute> {
        self.attrs.iter()
    }

    /// Indices of all categorical attributes.
    pub fn categorical_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.attrs[i].kind.is_categorical())
            .collect()
    }

    /// Domain cardinality of categorical attribute `idx`; `None` if numeric.
    pub fn cardinality(&self, idx: usize) -> Option<u32> {
        match self.attrs[idx].kind {
            AttrKind::Categorical { cardinality } => Some(cardinality),
            AttrKind::Numeric => None,
        }
    }

    /// Largest categorical domain cardinality (`#MaxDC` in Table 1 of the
    /// paper); 0 if the schema has no categorical attributes.
    pub fn max_domain_cardinality(&self) -> u32 {
        self.attrs
            .iter()
            .filter_map(|a| match a.kind {
                AttrKind::Categorical { cardinality } => Some(cardinality),
                AttrKind::Numeric => None,
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_cat = self.categorical_indices().len();
        let n_num = self.len() - n_cat;
        write!(
            f,
            "Schema({} attrs: {n_cat} categorical, {n_num} numeric, maxDC={})",
            self.len(),
            self.max_domain_cardinality()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical("workclass", 8),
            Attribute::numeric("age"),
            Attribute::categorical("education", 16),
            Attribute::numeric("hours"),
        ])
    }

    #[test]
    fn index_partitions() {
        let s = sample_schema();
        assert_eq!(s.len(), 4);
        assert_eq!(s.categorical_indices(), vec![0, 2]);
    }

    #[test]
    fn cardinalities() {
        let s = sample_schema();
        assert_eq!(s.cardinality(0), Some(8));
        assert_eq!(s.cardinality(1), None);
        assert_eq!(s.max_domain_cardinality(), 16);
    }

    #[test]
    fn display_summarizes() {
        let s = sample_schema();
        let d = s.to_string();
        assert!(d.contains("2 categorical"), "{d}");
        assert!(d.contains("maxDC=16"), "{d}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_cardinality_rejected() {
        Attribute::categorical("x", 0);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_schema_rejected() {
        Schema::new(vec![]);
    }
}
