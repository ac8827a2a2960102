open Openmb_sim

type stats = {
  perflow_support_chunks : int;
  perflow_report_chunks : int;
  perflow_support_bytes : int;
  perflow_report_bytes : int;
  shared_support_bytes : int;
  shared_report_bytes : int;
}

let empty_stats =
  {
    perflow_support_chunks = 0;
    perflow_report_chunks = 0;
    perflow_support_bytes = 0;
    perflow_report_bytes = 0;
    shared_support_bytes = 0;
    shared_report_bytes = 0;
  }

type cost_model = {
  per_packet : Time.t;
  op_slowdown : float;
  scan_per_entry : Time.t;
  serialize_per_chunk : Time.t;
  serialize_per_byte : Time.t;
  deserialize_per_chunk : Time.t;
  deserialize_per_byte : Time.t;
}

type impl = {
  name : string;
  kind : string;
  granularity : Openmb_net.Hfl.granularity;
  cost : cost_model;
  table_entries : unit -> int;
  get_config : Config_tree.path -> (Config_tree.entry list, Errors.t) result;
  set_config : Config_tree.path -> Openmb_wire.Json.t list -> (unit, Errors.t) result;
  del_config : Config_tree.path -> (unit, Errors.t) result;
  get_support_perflow : Openmb_net.Hfl.t -> (Chunk.t list, Errors.t) result;
  put_support_perflow : Chunk.t -> (unit, Errors.t) result;
  del_support_perflow : Openmb_net.Hfl.t -> (int, Errors.t) result;
  get_support_shared : unit -> (Chunk.t option, Errors.t) result;
  put_support_shared : Chunk.t -> (unit, Errors.t) result;
  get_report_perflow : Openmb_net.Hfl.t -> (Chunk.t list, Errors.t) result;
  put_report_perflow : Chunk.t -> (unit, Errors.t) result;
  del_report_perflow : Openmb_net.Hfl.t -> (int, Errors.t) result;
  get_report_shared : unit -> (Chunk.t option, Errors.t) result;
  put_report_shared : Chunk.t -> (unit, Errors.t) result;
  abort_perflow : Openmb_net.Hfl.t -> unit;
  on_crash : unit -> unit;
  stats : Openmb_net.Hfl.t -> stats;
  process_packet : Openmb_net.Packet.t -> side_effects:bool -> unit;
  set_event_sink : Event.Filter.t -> (Event.t -> unit) -> unit;
  set_op_active : bool -> unit;
}

let check_granularity impl hfl =
  if Openmb_net.Hfl.compatible_with_granularity hfl impl.granularity then Ok ()
  else Error Errors.Granularity_too_fine

(* Dispatch one chunk to the put operation its role/partition selects —
   chunks self-describe, so batch application needs no side channel. *)
let put_chunk impl (chunk : Chunk.t) =
  match (chunk.Chunk.role, chunk.Chunk.partition) with
  | Taxonomy.Supporting, Taxonomy.Per_flow -> impl.put_support_perflow chunk
  | Taxonomy.Supporting, Taxonomy.Shared -> impl.put_support_shared chunk
  | Taxonomy.Reporting, Taxonomy.Per_flow -> impl.put_report_perflow chunk
  | Taxonomy.Reporting, Taxonomy.Shared -> impl.put_report_shared chunk
  | Taxonomy.Configuring, (Taxonomy.Per_flow | Taxonomy.Shared) ->
    (* Configuration state never travels as chunks: a chunk that
       claims it is handed to the shared supporting put, the one that
       installs whole-MB state. *)
    impl.put_support_shared chunk

let default_cost =
  {
    per_packet = Time.us 100.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 1.0;
    serialize_per_chunk = Time.us 50.0;
    serialize_per_byte = Time.us 0.02;
    deserialize_per_chunk = Time.us 10.0;
    deserialize_per_byte = Time.us 0.01;
  }
