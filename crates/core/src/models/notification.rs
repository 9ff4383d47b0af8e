//! Notification preferences and the simulated e-mail outbox.
//!
//! §4.4: "Users may opt to receive an e-mail when their simulation
//! completes or to receive e-mails at each state transition", transients
//! notify only administrators, and model failures notify both. We have no
//! SMTP; `Notification` rows are the outbox (their observable content is
//! what the paper's behaviour prescribes).

use super::{get_bool, get_int, get_opt_int, get_text};
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};
use std::str::FromStr;

/// A user's e-mail preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// No mail at all.
    None,
    /// One mail when the simulation completes (default).
    OnCompletion,
    /// Mail at every workflow state transition.
    EveryTransition,
}

impl NotifyMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            NotifyMode::None => "none",
            NotifyMode::OnCompletion => "on_completion",
            NotifyMode::EveryTransition => "every_transition",
        }
    }
}

impl FromStr for NotifyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(NotifyMode::None),
            "on_completion" => Ok(NotifyMode::OnCompletion),
            "every_transition" => Ok(NotifyMode::EveryTransition),
            other => Err(format!("unknown notify mode {other:?}")),
        }
    }
}

/// Who a notification targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audience {
    User,
    Administrator,
}

impl Audience {
    pub fn as_str(&self) -> &'static str {
        match self {
            Audience::User => "user",
            Audience::Administrator => "admin",
        }
    }
}

impl FromStr for Audience {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "user" => Ok(Audience::User),
            "admin" => Ok(Audience::Administrator),
            other => Err(format!("unknown audience {other:?}")),
        }
    }
}

/// One outbox entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    pub id: Option<i64>,
    /// Recipient user (None for administrator broadcasts).
    pub user_id: Option<i64>,
    /// Related simulation, if any.
    pub simulation_id: Option<i64>,
    pub audience: Audience,
    pub subject: String,
    pub body: String,
    pub created_at: i64,
    pub sent: bool,
}

impl Notification {
    pub fn to_user(
        user_id: i64,
        simulation_id: Option<i64>,
        subject: &str,
        body: &str,
        at: i64,
    ) -> Self {
        Notification {
            id: None,
            user_id: Some(user_id),
            simulation_id,
            audience: Audience::User,
            subject: subject.to_string(),
            body: body.to_string(),
            created_at: at,
            sent: false,
        }
    }

    pub fn to_admins(simulation_id: Option<i64>, subject: &str, body: &str, at: i64) -> Self {
        Notification {
            id: None,
            user_id: None,
            simulation_id,
            audience: Audience::Administrator,
            subject: subject.to_string(),
            body: body.to_string(),
            created_at: at,
            sent: false,
        }
    }
}

impl Model for Notification {
    const TABLE: &'static str = "notification";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("user_id", ValueType::Int)
                    .references("amp_user", OnDelete::Cascade)
                    .indexed(),
                Column::new("simulation_id", ValueType::Int)
                    .references("simulation", OnDelete::SetNull)
                    .indexed(),
                Column::new("audience", ValueType::Text).not_null(),
                Column::new("subject", ValueType::Text)
                    .not_null()
                    .max_length(200),
                Column::new("body", ValueType::Text).not_null(),
                Column::new("created_at", ValueType::Int).not_null(),
                Column::new("sent", ValueType::Bool)
                    .not_null()
                    .default(false),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Notification {
            id: Some(id),
            user_id: get_opt_int::<Self>(row, "user_id")?,
            simulation_id: get_opt_int::<Self>(row, "simulation_id")?,
            audience: get_text::<Self>(row, "audience")?
                .parse()
                .map_err(DbError::Schema)?,
            subject: get_text::<Self>(row, "subject")?,
            body: get_text::<Self>(row, "body")?,
            created_at: get_int::<Self>(row, "created_at")?,
            sent: get_bool::<Self>(row, "sent")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("user_id", self.user_id.into()),
            ("simulation_id", self.simulation_id.into()),
            ("audience", self.audience.as_str().into()),
            ("subject", self.subject.as_str().into()),
            ("body", self.body.as_str().into()),
            ("created_at", self.created_at.into()),
            ("sent", self.sent.into()),
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

    #[test]
    fn mode_roundtrip() {
        for m in [
            NotifyMode::None,
            NotifyMode::OnCompletion,
            NotifyMode::EveryTransition,
        ] {
            assert_eq!(m.as_str().parse::<NotifyMode>().unwrap(), m);
        }
        assert!("weekly".parse::<NotifyMode>().is_err());
    }

    #[test]
    fn audience_roundtrip() {
        for a in [Audience::User, Audience::Administrator] {
            assert_eq!(a.as_str().parse::<Audience>().unwrap(), a);
        }
    }

    #[test]
    fn constructors() {
        let u = Notification::to_user(3, Some(7), "done", "body", 99);
        assert_eq!(u.audience, Audience::User);
        assert_eq!(u.user_id, Some(3));
        assert!(!u.sent);
        let a = Notification::to_admins(None, "transient", "gram down", 99);
        assert_eq!(a.audience, Audience::Administrator);
        assert_eq!(a.user_id, None);
    }
}
