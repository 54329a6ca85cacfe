//! # rayfade-learning
//!
//! Distributed capacity maximization via regret learning (paper Sec. 6–7).
//!
//! * [`rwm`] — the Randomized Weighted Majority learner in the paper's
//!   exact variant (η schedule halving at powers of two);
//! * [`mod@reward`] — Section 6 rewards (`+1 / −1 / 0`) and their Figure 2
//!   loss form (`0 / 1 / 0.5`), plus the expected reward `h̄ = 2Q − 1`;
//! * [`regret`] — external-regret accounting (Definition 2);
//! * [`game`] — the per-link learning dynamics, model-agnostic: the same
//!   game runs under non-fading and Rayleigh interference, which is the
//!   comparison Figure 2 draws and Theorem 3 analyzes;
//! * [`exp3`] — bandit-feedback learning (Auer et al. \[23\]) for the fully
//!   distributed information model;
//! * [`nash`] — best-response dynamics and pure Nash equilibria (the
//!   game-theoretic side the paper transfers from \[5\]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp3;
pub mod game;
pub mod multichannel;
pub mod nash;
pub mod regret;
pub mod reward;
pub mod rwm;

pub use exp3::{BanditLearner, Exp3};
pub use game::{
    run_game_bandit, run_game_instrumented, run_game_with_beta, GameConfig, GameOutcome,
};
pub use multichannel::{run_game_multichannel, MultichannelGameConfig, MultichannelGameOutcome};
pub use nash::{best_response_dynamics, is_pure_nash, NashOutcome, RewardModel};
pub use regret::RegretTracker;
pub use reward::{expected_send_reward, expected_send_rewards, loss, reward, Action};
pub use rwm::{NoRegretLearner, Rwm};
