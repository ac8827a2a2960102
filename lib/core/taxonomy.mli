(** The paper's middlebox state taxonomy (§3.1, Table 1).

    Every piece of MB state is classified along two dimensions — its
    {e role} in MB operation and its {e partitioning} — and the
    classification determines which control operations are legal on it
    and who (MB vs. controller) may create or modify it. *)

type role =
  | Configuring
      (** Policies and parameters defining/tuning MB behaviour.  The MB
          only reads it; the controller owns creation and updates. *)
  | Supporting
      (** Details on past traffic guiding MB decisions and actions.
          Read and written by the MB's internal logic. *)
  | Reporting
      (** Quantified observations and decisions, maintained solely for
          external consumption.  Written by the MB. *)

type partition =
  | Per_flow  (** Applies to one flow (at the MB's key granularity). *)
  | Shared  (** Applies to all traffic at the MB. *)

type access = Read_only | Write_only | Read_write
(** How the MB's own logic touches state of a given role. *)

val mb_access : role -> access
(** Table 1's "MB Ops" column: Configuring → [Read_only], Supporting →
    [Read_write], Reporting → [Write_only]. *)

val controller_may_write : role -> bool
(** Whether the controller may create/update state contents of this
    role (true only for [Configuring]); for the other roles it may only
    relocate opaque chunks. *)

val may_move : role -> partition -> bool
(** Whether a chunk of this class may be {e moved} between MBs
    (per-flow supporting and reporting state only: moving shared state
    away would strand remaining flows, §4.1.2). *)

val may_clone : role -> partition -> bool
(** Whether a chunk of this class may be {e cloned}: configuring and
    supporting state yes; reporting state never (double reporting,
    §4.1.3). *)

val may_merge : role -> partition -> bool
(** Whether chunks of this class may be {e merged} by the receiving
    MB: shared supporting and shared reporting state (MB-specific
    logic); per-flow state is moved instead. *)

val role_to_string : role -> string
val role_of_string : string -> role
val partition_to_string : partition -> string
val partition_of_string : string -> partition
