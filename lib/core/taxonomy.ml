type role = Configuring | Supporting | Reporting

type partition = Per_flow | Shared

type access = Read_only | Write_only | Read_write

let mb_access = function
  | Configuring -> Read_only
  | Supporting -> Read_write
  | Reporting -> Write_only

let controller_may_write = function
  | Configuring -> true
  | Supporting | Reporting -> false

let may_move role partition =
  match (role, partition) with
  | (Supporting | Reporting), Per_flow -> true
  | (Supporting | Reporting), Shared -> false
  | Configuring, (Per_flow | Shared) -> false

let may_clone role partition =
  match (role, partition) with
  | Configuring, (Per_flow | Shared) -> true
  | Supporting, (Per_flow | Shared) -> true
  | Reporting, (Per_flow | Shared) -> false

let may_merge role partition =
  match (role, partition) with
  | (Supporting | Reporting), Shared -> true
  | (Supporting | Reporting), Per_flow -> false
  | Configuring, (Per_flow | Shared) -> false

let role_to_string = function
  | Configuring -> "configuring"
  | Supporting -> "supporting"
  | Reporting -> "reporting"

let role_of_string = function
  | "configuring" -> Configuring
  | "supporting" -> Supporting
  | "reporting" -> Reporting
  | s -> invalid_arg (Printf.sprintf "Taxonomy.role_of_string: %S" s)

let partition_to_string = function Per_flow -> "per-flow" | Shared -> "shared"

let partition_of_string = function
  | "per-flow" -> Per_flow
  | "shared" -> Shared
  | s -> invalid_arg (Printf.sprintf "Taxonomy.partition_of_string: %S" s)

