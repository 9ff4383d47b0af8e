//! The local star catalog and uploaded observation sets.
//!
//! §4.2: users browse/search the catalog; targets missing locally are
//! fetched from SIMBAD and imported. The search-suggest feature highlights
//! "stars with results or in the Kepler catalog", so both flags are
//! denormalized onto the row.

use super::{get_bool, get_float, get_int, get_opt_int, get_opt_text, get_text};
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};
use amp_stellar::ObservedStar;

/// A catalog star as stored by the gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct Star {
    pub id: Option<i64>,
    /// Canonical display identifier ("HD 52265", "KIC 8006161").
    pub identifier: String,
    /// Common name, if any.
    pub name: Option<String>,
    pub hd_number: Option<i64>,
    pub kic_number: Option<i64>,
    pub ra: f64,
    pub dec: f64,
    pub vmag: f64,
    pub in_kepler_field: bool,
    /// "local" or "simbad" (import provenance).
    pub source: String,
    /// Denormalized: completed simulation results exist (search suggest).
    pub has_results: bool,
}

impl Star {
    pub fn from_catalog(entry: &amp_stellar::CatalogStar, source: &str) -> Self {
        Star {
            id: None,
            identifier: entry.identifier(),
            name: entry.name.clone(),
            hd_number: entry.hd_number.map(|n| n as i64),
            kic_number: entry.kic_number.map(|n| n as i64),
            ra: entry.ra,
            dec: entry.dec,
            vmag: entry.vmag,
            in_kepler_field: entry.in_kepler_field,
            source: source.to_string(),
            has_results: false,
        }
    }
}

impl Model for Star {
    const TABLE: &'static str = "star";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("identifier", ValueType::Text)
                    .not_null()
                    .unique()
                    .max_length(64),
                Column::new("name", ValueType::Text).max_length(100),
                Column::new("hd_number", ValueType::Int).indexed(),
                Column::new("kic_number", ValueType::Int).indexed(),
                Column::new("ra", ValueType::Float).not_null(),
                Column::new("dec", ValueType::Float).not_null(),
                Column::new("vmag", ValueType::Float).not_null(),
                Column::new("in_kepler_field", ValueType::Bool)
                    .not_null()
                    .default(false),
                Column::new("source", ValueType::Text)
                    .not_null()
                    .default("local"),
                Column::new("has_results", ValueType::Bool)
                    .not_null()
                    .default(false),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Star {
            id: Some(id),
            identifier: get_text::<Self>(row, "identifier")?,
            name: get_opt_text::<Self>(row, "name")?,
            hd_number: get_opt_int::<Self>(row, "hd_number")?,
            kic_number: get_opt_int::<Self>(row, "kic_number")?,
            ra: get_float::<Self>(row, "ra")?,
            dec: get_float::<Self>(row, "dec")?,
            vmag: get_float::<Self>(row, "vmag")?,
            in_kepler_field: get_bool::<Self>(row, "in_kepler_field")?,
            source: get_text::<Self>(row, "source")?,
            has_results: get_bool::<Self>(row, "has_results")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("identifier", self.identifier.as_str().into()),
            ("name", self.name.as_deref().into()),
            ("hd_number", self.hd_number.into()),
            ("kic_number", self.kic_number.into()),
            ("ra", self.ra.into()),
            ("dec", self.dec.into()),
            ("vmag", self.vmag.into()),
            ("in_kepler_field", self.in_kepler_field.into()),
            ("source", self.source.as_str().into()),
            ("has_results", self.has_results.into()),
        ]
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

/// An uploaded observation set for a star (frequencies + constraints),
/// stored as the canonical serialized form that the marshaling layer
/// regenerates input files from (§3: "the input files are regenerated from
/// the database").
///
/// The payload is application-defined: stellar simulations store a
/// serialized `ObservedStar`, other science applications store whatever
/// their [`ScienceApp::observation_input`] hook expects.
///
/// [`ScienceApp::observation_input`]: crate::app::ScienceApp::observation_input
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub id: Option<i64>,
    pub star_id: i64,
    pub uploaded_by: i64,
    /// Application-defined serialized observation set (for stellar, an
    /// `ObservedStar`).
    pub data_json: String,
    pub created_at: i64,
}

impl Observation {
    pub fn new(star_id: i64, uploaded_by: i64, obs: &ObservedStar, at: i64) -> Self {
        Observation {
            id: None,
            star_id,
            uploaded_by,
            data_json: serde_json::to_string(obs).expect("observed star serializes"),
            created_at: at,
        }
    }

    /// An observation set with an already-serialized, application-defined
    /// payload (the multi-application upload path).
    pub fn from_data_json(
        star_id: i64,
        uploaded_by: i64,
        data_json: impl Into<String>,
        at: i64,
    ) -> Self {
        Observation {
            id: None,
            star_id,
            uploaded_by,
            data_json: data_json.into(),
            created_at: at,
        }
    }

    /// Decode the stored observation set.
    pub fn observed(&self) -> Result<ObservedStar, DbError> {
        serde_json::from_str(&self.data_json)
            .map_err(|e| DbError::Corrupt(format!("observation {e}")))
    }
}

impl Model for Observation {
    const TABLE: &'static str = "observation";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("star_id", ValueType::Int)
                    .not_null()
                    .references("star", OnDelete::Cascade)
                    .indexed(),
                Column::new("uploaded_by", ValueType::Int)
                    .not_null()
                    .references("amp_user", OnDelete::Restrict),
                Column::new("data_json", ValueType::Text).not_null(),
                Column::new("created_at", ValueType::Int).not_null(),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Observation {
            id: Some(id),
            star_id: get_int::<Self>(row, "star_id")?,
            uploaded_by: get_int::<Self>(row, "uploaded_by")?,
            data_json: get_text::<Self>(row, "data_json")?,
            created_at: get_int::<Self>(row, "created_at")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("star_id", self.star_id.into()),
            ("uploaded_by", self.uploaded_by.into()),
            ("data_json", self.data_json.as_str().into()),
            ("created_at", self.created_at.into()),
        ]
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_stellar::{famous_stars, synthesize, Domain, StellarParams};

    #[test]
    fn star_from_catalog_entry() {
        let famous = famous_stars();
        let s = Star::from_catalog(&famous[0], "simbad");
        assert_eq!(s.identifier, "HD 128620");
        assert_eq!(s.name.as_deref(), Some("Alpha Centauri"));
        assert_eq!(s.source, "simbad");
        assert!(!s.has_results);
    }

    #[test]
    fn observation_roundtrip() {
        let obs = synthesize(
            "KIC 1",
            &StellarParams::benchmark(),
            &Domain::default(),
            0.1,
            1,
        )
        .unwrap();
        let rec = Observation::new(1, 1, &obs, 500);
        let decoded = rec.observed().unwrap();
        assert_eq!(decoded, obs);
    }

    #[test]
    fn corrupt_observation_detected() {
        let rec = Observation {
            id: None,
            star_id: 1,
            uploaded_by: 1,
            data_json: "not json".into(),
            created_at: 0,
        };
        assert!(rec.observed().is_err());
    }
}
